"""How a queued group finds its checker: ``VerificationService.resolve_scope``.

Registry first — the checker admission registered, with no data load —
and a rebuild from the journaled data spec only for an unregistered
scope, refused when the data no longer hashes to the admitted scope.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.service import CheckRequest, VerificationService
from repro.service.protocol import data_spec

from tests.service.conftest import NFL_CSV_EDITED


@pytest.fixture()
def nfl_request(data_files):
    return CheckRequest(
        csv_paths=(str(data_files["nfl"]),),
        article_path=str(data_files["nfl_article"]),
    )


def test_registered_scope_resolves_without_loading(data_files, nfl_request):
    service = VerificationService()
    prepared = service.prepare(nfl_request)
    data_files["nfl"].unlink()
    entry = service.resolve_scope(prepared.scope_fp, data_spec(nfl_request))
    assert entry is prepared.entry


def test_unregistered_scope_is_rebuilt_and_registered(nfl_request):
    scope_fp = VerificationService().prepare(nfl_request).scope_fp
    restarted = VerificationService()
    source = data_spec(nfl_request)
    entry = restarted.resolve_scope(scope_fp, source)
    assert entry.checker is not None
    assert len(restarted.pool) == 1
    assert restarted.source_for(scope_fp) == source


def test_rebuild_on_changed_data_is_refused(data_files, nfl_request):
    scope_fp = VerificationService().prepare(nfl_request).scope_fp
    data_files["nfl"].write_text(NFL_CSV_EDITED)
    restarted = VerificationService()
    with pytest.raises(ReproError, match="data changed since admission"):
        restarted.resolve_scope(scope_fp, data_spec(nfl_request))
    assert len(restarted.pool) == 0
    assert restarted.source_for(scope_fp) is None
