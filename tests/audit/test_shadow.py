"""Shadow verification against a live service: sampled acked groups are
re-executed on the NAIVE/row-wise oracle, injected wrong verdicts are
caught and repaired, and the trust ladder degrades — then heals — the
offending database's cache tiers. Skipped on the no-NumPy leg (full
pipeline) via tests/conftest.py.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.audit.shadow import ShadowAuditor
from repro.audit.trust import TrustLevel
from repro.core.config import AggCheckerConfig
from repro.db import Database, EngineConfig, load_csv
from repro.db.diskcache import fingerprint_of
from repro.faults import FaultSpec, active

from tests.service.test_aio import data_files, serve, wait_for  # noqa: F401
from tests.service.test_server import claims_of, cli_claims, get_json, post_check


def nfl_payload(data_files):
    return {
        "csv": str(data_files["nfl"]),
        "article_path": str(data_files["nfl_article"]),
    }


def nfl_fingerprint(data_files):
    return fingerprint_of(
        Database("nflsuspensions", [load_csv(data_files["nfl"])])
    )


def audited(server, payload, timeout=30.0):
    """Post a document and wait for its shadow audit to complete."""
    events = post_check(server.url, payload)
    assert server.service.auditor.flush(timeout)
    return events


class TestSampling:
    """Producer-side behavior, without a live service."""

    def _auditor(self, **kwargs):
        stub = SimpleNamespace(config=AggCheckerConfig())
        kwargs.setdefault("rate", 1.0)
        kwargs.setdefault("rng", random.Random(7))
        return ShadowAuditor(stub, **kwargs)

    def test_rate_must_be_a_probability(self):
        with pytest.raises(ValueError, match="audit rate"):
            self._auditor(rate=1.5)

    def test_zero_rate_disables_the_auditor(self):
        auditor = self._auditor(rate=0.0)
        assert not auditor.enabled
        auditor.observe_group("s", "d", {}, [(0, "fp", {"status": "verified"})])
        assert auditor.sampled_groups == 0

    def test_degraded_payloads_are_never_audited(self):
        auditor = self._auditor()
        auditor.observe_group(
            "s", "d", {}, [(0, "fp", {"status": "unresolved", "degraded": True})]
        )
        assert auditor.sampled_groups == 0
        assert auditor.skipped_degraded == 1

    def test_backlog_overflow_drops_rather_than_blocks(self):
        auditor = self._auditor(max_backlog=1)  # thread never started
        for _ in range(3):
            auditor.observe_group("s", "d", {}, [(0, "fp", {"status": "x"})])
        assert auditor.sampled_groups == 3
        assert auditor.dropped_tasks == 2

    def test_oracle_config_strips_every_cache_and_budget(self):
        from repro.db.engine import ExecutionMode

        stub = SimpleNamespace(
            config=AggCheckerConfig(
                claim_deadline=2.0,
                max_rows_materialized=10,
                max_cube_cells=10,
            )
        )
        oracle = ShadowAuditor(stub, rate=1.0).oracle_config()
        assert oracle.engine.mode is ExecutionMode.NAIVE
        assert oracle.engine.backend == "row"
        assert oracle.engine.cache_dir is None
        assert oracle.claim_deadline is None
        assert oracle.max_rows_materialized is None
        assert oracle.max_cube_cells is None


class TestCleanAudit:
    def test_audited_service_reports_zero_divergences(
        self, data_files, capsys
    ):
        server = serve(workers=1, audit_rate=1.0)
        try:
            events = audited(server, nfl_payload(data_files))
            auditor = server.service.auditor
            assert auditor.sampled_groups >= 1
            assert auditor.stats.audit_checks >= len(claims_of(events))
            assert auditor.stats.audit_divergences == 0
            # The audited verdicts ARE the CLI oracle's verdicts.
            assert claims_of(events) == cli_claims(
                capsys, data_files["nfl"], data_files["nfl_article"]
            )
            audit = get_json(server.url + "/audit")
            assert audit["enabled"] and audit["divergences"] == 0
            assert audit["checks"] == auditor.stats.audit_checks
            assert not audit["ladder"]["degraded"]
            health = get_json(server.url + "/health")
            assert health["status"] == "ok"
            assert health["audit"]["checks"] == auditor.stats.audit_checks
            stats = get_json(server.url + "/stats")
            assert stats["engine"]["audit_checks"] >= 1
            assert stats["audit"]["backlog"] == 0
        finally:
            server.shutdown_gracefully()

    def test_disabled_audit_is_explicit_everywhere(self, data_files):
        server = serve(workers=1, audit_rate=0.0)
        try:
            assert server.service.auditor is None
            assert get_json(server.url + "/audit") == {"enabled": False}
            assert get_json(server.url + "/health")["audit"] is None
            assert "audit" not in get_json(server.url + "/stats")
        finally:
            server.shutdown_gracefully()


class TestDivergenceHandling:
    @pytest.mark.faults
    def test_poisoned_verdict_is_caught_repaired_and_demoted(
        self, data_files, capsys
    ):
        server = serve(workers=1, audit_rate=1.0)
        payload = nfl_payload(data_files)
        try:
            with active(
                FaultSpec("audit.bitflip", "raise", match="verdict:*")
            ):
                poisoned = audited(server, payload)
            auditor = server.service.auditor
            oracle = cli_claims(
                capsys, data_files["nfl"], data_files["nfl_article"]
            )
            # The served verdicts really were wrong...
            assert claims_of(poisoned) != oracle
            # ...the shadow audit caught it...
            assert auditor.stats.audit_divergences >= 1
            assert auditor.stats.audit_repairs >= 1
            assert auditor.recent_divergences
            entry = auditor.recent_divergences[0]
            assert entry["served_status"] != entry["expected_status"]
            # ...the database lost a trust rung...
            fp = nfl_fingerprint(data_files)
            assert auditor.ladder.level(fp) is TrustLevel.DISK_BYPASS
            assert get_json(server.url + "/health")["status"] == "degraded"
            audit = get_json(server.url + "/audit")
            assert audit["ladder"]["databases"][fp]["level"] == "disk_bypass"
            # ...and the memo was repaired in place: the same request now
            # serves the oracle's verdicts from cache.
            repaired = post_check(server.url, payload)
            assert all(
                e["cached"] for e in repaired if e["event"] == "claim"
            )
            assert claims_of(repaired) == oracle
        finally:
            server.shutdown_gracefully()

    def test_disk_bypass_groups_still_serve_oracle_verdicts(
        self, data_files, capsys
    ):
        server = serve(workers=1, audit_rate=1.0, trust_recover_after=1)
        fp = nfl_fingerprint(data_files)
        try:
            server.service.auditor.ladder.record_divergence(fp)
            events = audited(server, nfl_payload(data_files))
            auditor = server.service.auditor
            assert auditor.disk_bypassed_groups >= 1
            assert claims_of(events) == cli_claims(
                capsys, data_files["nfl"], data_files["nfl_article"]
            )
            # The clean audit promoted the database straight back.
            assert auditor.ladder.level(fp) is TrustLevel.FULL
        finally:
            server.shutdown_gracefully()

    def test_oracle_only_groups_still_serve_oracle_verdicts(
        self, data_files, capsys
    ):
        server = serve(workers=1, audit_rate=1.0)
        fp = nfl_fingerprint(data_files)
        try:
            ladder = server.service.auditor.ladder
            ladder.record_divergence(fp)
            ladder.record_divergence(fp)
            assert ladder.level(fp) is TrustLevel.ORACLE_ONLY
            events = audited(server, nfl_payload(data_files))
            assert server.service.auditor.oracle_groups >= 1
            assert claims_of(events) == cli_claims(
                capsys, data_files["nfl"], data_files["nfl_article"]
            )
        finally:
            server.shutdown_gracefully()


class TestCellScrub:
    def test_each_audit_deep_scrubs_disk_cache_cells(
        self, data_files, tmp_path
    ):
        config = AggCheckerConfig(engine=EngineConfig(cache_dir=str(tmp_path / "cube-cache")))
        server = serve(workers=1, audit_rate=1.0, config=config)
        try:
            server.service.auditor.scrub_cells = 100
            audited(server, nfl_payload(data_files))
            auditor = server.service.auditor
            assert auditor.stats.audit_cell_scrubs >= 1
            assert auditor.stats.audit_cell_mismatches == 0
        finally:
            server.shutdown_gracefully()

    @pytest.mark.faults
    def test_semantically_poisoned_cell_is_quarantined_and_demoted(
        self, data_files, tmp_path
    ):
        cache_dir = tmp_path / "cube-cache"
        config = AggCheckerConfig(engine=EngineConfig(cache_dir=str(cache_dir)))
        server = serve(workers=1, audit_rate=1.0, config=config)
        fp = nfl_fingerprint(data_files)
        try:
            server.service.auditor.scrub_cells = 100
            # Poison one cube cell BEFORE its CRC is computed: the file
            # is structurally valid, only the recompute can notice.
            with active(
                FaultSpec("audit.bitflip", "raise", match="cell:*")
            ):
                audited(server, nfl_payload(data_files))
            auditor = server.service.auditor
            assert auditor.stats.audit_cell_mismatches >= 1
            assert auditor.ladder.level(fp) is not TrustLevel.FULL
            assert list(cache_dir.glob("*.corrupt"))
        finally:
            server.shutdown_gracefully()
