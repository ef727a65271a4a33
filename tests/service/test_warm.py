"""How a queued group finds its checker: ``VerificationService.resolve_scope``.

Registry first — the checker admission registered, with no data load —
and a rebuild from the journaled data spec only for an unregistered
scope, refused when the data no longer hashes to the admitted scope. A
group shed under memory pressure never looks for its checker.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.service import CheckRequest, VerificationService
from repro.service import memwatch as memwatch_module
from repro.service.memwatch import MemoryWatchdog
from repro.service.protocol import data_spec
from repro.service.queue import DurableJobQueue
from repro.service.workers import GroupExecutor

from tests.service.conftest import NFL_ARTICLE, NFL_CSV_EDITED


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


def test_shed_group_never_resolves_its_scope(monkeypatch, nfl_request):
    """Resolving an unregistered scope loads its data and builds a
    checker: the allocation shedding exists to avoid."""
    scope_fp = VerificationService().prepare(nfl_request).scope_fp
    restarted = VerificationService()
    resolved = []
    monkeypatch.setattr(
        restarted, "resolve_scope", lambda *args: resolved.append(args)
    )
    monkeypatch.setattr(memwatch_module, "read_rss_mb", lambda: 150.0)
    watchdog = MemoryWatchdog(max_rss_mb=100.0)
    watchdog.sample_once()
    queue = DurableJobQueue()
    source = dict(data_spec(nfl_request), article=NFL_ARTICLE, title="t")
    queue.submit_group(scope_fp, source, [lambda *event: None])
    payloads = GroupExecutor(restarted, watchdog).run(queue.lease_group())
    assert resolved == []
    assert [p["degraded"] for p in payloads.values()] == ["shed"]
    assert len(restarted.pool) == 0


def test_only_a_whole_document_is_memoized(nfl_request):
    """A journal cut inside a group's put records resumes part of the
    document; its verdicts must not stand for the whole document."""
    service = VerificationService()
    scope_fp = service.prepare(nfl_request).scope_fp
    queue = DurableJobQueue()
    source = dict(data_spec(nfl_request), article=NFL_ARTICLE, title="t")
    queue.submit_group(
        scope_fp, source, [lambda *event: None], document="document"
    )
    payloads = GroupExecutor(service).run(queue.lease_group())
    assert len(payloads) == 1
    assert len(service.cache) == 0
