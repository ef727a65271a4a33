"""Hostile payloads against a live service: structured errors, no crashes.

The acceptance bar for adversarial-input hardening: whatever a client
throws at ``POST /check`` — binary garbage, malformed JSON, oversized
inline tables, quote bombs, over-limit claim counts, over-cost requests —
the server answers a structured JSON error (or a degraded verdict
stream), stays alive, and still verifies a benign request afterwards.
Covers cost-based admission (413 + machine-readable reason) and
RSS-pressure shedding end to end.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import AggCheckerConfig
from repro.faults import FaultSpec, active
from repro.service import protocol
from repro.service.memwatch import read_rss_mb

from tests.service.test_aio import serve, wait_for
from tests.service.conftest import (
    NFL_ARTICLE,
    NFL_CSV,
    claims_of,
    get_json,
    post_check,
)


def post_raw(url, body, headers=None, timeout=30):
    """POST bytes to /check; (status, decoded body).

    Error responses are one pretty-printed JSON object; 200 responses
    are NDJSON and decode to a list of events.
    """
    request = urllib.request.Request(
        url + "/check",
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
        error.close()
    if not raw.strip():
        return status, None
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, [
            json.loads(line) for line in raw.splitlines() if line.strip()
        ]


BENIGN = {"tables": {"nflsuspensions": NFL_CSV}, "article": NFL_ARTICLE}

HOSTILE_BODIES = {
    "empty": b"",
    "not-json": b"this is not json",
    "binary-garbage": bytes(range(256)) * 4,
    "non-object": b"[1, 2, 3]",
    "unknown-fields": b'{"artcile": "typo", "junk": 1}',
    "wrong-types": b'{"csv": 7, "article": ["x"]}',
    "deep-nesting": json.dumps(
        {"article": "x", "tables": {"t": "a\n1\n"}, "junk": None}
    ).encode()[:-1],  # truncated JSON
    "csv-quote-bomb": json.dumps(
        {"tables": {"t": '"' + "a" * 200_000}, "article": "x"}
    ).encode(),
    "csv-too-wide": json.dumps(
        {
            "tables": {"t": ",".join(f"c{i}" for i in range(400)) + "\n"},
            "article": "The total was 5.",
        }
    ).encode(),
    "csv-duplicate-columns": json.dumps(
        {"tables": {"t": ";,;\n1,2\n"}, "article": "x"}
    ).encode(),
    "too-many-tables": json.dumps(
        {
            "tables": {f"t{i}": "a\n1\n" for i in range(40)},
            "article": "x",
        }
    ).encode(),
    "conflicting-reference": json.dumps(
        {"database": "deadbeef", "tables": {"t": "a\n1\n"}, "article": "x"}
    ).encode(),
    "missing-article": json.dumps({"tables": {"t": "a\n1\n"}}).encode(),
}


@pytest.fixture(scope="module")
def hostile_server():
    server = serve(workers=1)
    try:
        yield server
    finally:
        server.shutdown_gracefully()


class TestHostilePayloads:
    @pytest.mark.parametrize("name", sorted(HOSTILE_BODIES))
    def test_hostile_body_gets_a_structured_error(
        self, hostile_server, name
    ):
        status, body = post_raw(hostile_server.url, HOSTILE_BODIES[name])
        assert 400 <= status < 500, f"{name}: expected a 4xx, got {status}"
        assert isinstance(body, dict) and "error" in body
        if status == 400:
            assert body.get("reason"), f"{name}: 400 without a reason"

    @given(body=st.binary(max_size=2048))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_bytes_never_crash_the_server(self, hostile_server, body):
        status, decoded = post_raw(hostile_server.url, body)
        # 411: an empty body has no length to read.
        assert status in (200, 400, 411, 413, 422)
        if status != 200:
            assert isinstance(decoded, dict) and "error" in decoded

    def test_claim_limit_maps_to_a_400(self, hostile_server, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_CLAIMS_PER_DOCUMENT", 0)
        status, body = post_raw(
            hostile_server.url, json.dumps(BENIGN).encode()
        )
        assert status == 400
        assert body["reason"] == "too_many_claims"

    def test_server_still_healthy_and_verifying_after_the_barrage(
        self, hostile_server
    ):
        health = get_json(hostile_server.url + "/health")
        assert health["status"] == "ok"
        assert "memory" in health
        events = post_check(hostile_server.url, BENIGN)
        claims = claims_of(events)
        assert claims and all("degraded" not in c for c in claims)


class TestCostAdmission:
    def test_over_cost_request_is_rejected_with_413(self):
        server = serve(workers=1, max_request_cost=1)
        try:
            status, body = post_raw(
                server.url, json.dumps(BENIGN).encode()
            )
            assert status == 413
            assert body["reason"] == "cost_exceeded"
            assert body["max_cost"] == 1
            assert body["cost"] > 1
            stats = get_json(server.url + "/stats")
            assert stats["admission"]["rejected_cost"] == 1
            assert stats["admission"]["max_request_cost"] == 1
            assert server.service.queue.stats()["enqueued"] == 0
        finally:
            server.shutdown_gracefully()

    def test_cheap_requests_pass_under_a_generous_ceiling(self):
        server = serve(workers=1, max_request_cost=10**9)
        try:
            events = post_check(server.url, BENIGN)
            assert claims_of(events)
            assert (
                get_json(server.url + "/stats")["admission"]["rejected_cost"]
                == 0
            )
        finally:
            server.shutdown_gracefully()

    @pytest.mark.faults
    def test_admission_cost_fault_drives_the_413_path(self):
        server = serve(workers=1)
        try:
            with active(FaultSpec("admission.cost", "raise")):
                status, body = post_raw(
                    server.url, json.dumps(BENIGN).encode()
                )
            assert status == 413
            assert body["reason"] == "cost_exceeded"
            # The fault consumed its one firing: service recovers.
            events = post_check(server.url, BENIGN)
            assert claims_of(events)
        finally:
            server.shutdown_gracefully()


class TestMemoryPressure:
    def test_rss_over_limit_sheds_to_degraded_verdicts(self):
        if read_rss_mb() is None:
            pytest.skip("no /proc on this platform")
        # Any real process is over a 1 MiB budget: trips immediately.
        server = serve(workers=1, max_rss_mb=1.0, rss_interval=0.02)
        try:
            assert wait_for(
                lambda: get_json(server.url + "/health")["memory"]["shedding"]
            )
            health = get_json(server.url + "/health")
            assert health["memory"]["rss_mb"] > health["memory"]["max_rss_mb"]
            assert health["memory"]["shedding"]
            events = post_check(server.url, BENIGN)
            claims = claims_of(events)
            assert claims, "shedding still answers, degraded"
            for claim in claims:
                assert claim["status"] == "unverifiable"
                assert claim["degraded"] == "shed"
            assert events[-1]["flagged"] == len(claims)
            assert events[-1]["errors"] == 0

            # Shed verdicts depend on RSS, not on the claim: the
            # incremental tier refuses both shed documents.
            again = post_check(server.url, BENIGN)
            assert all(
                not e["cached"] for e in again if e["event"] == "claim"
            )
            assert claims_of(again) == claims
            stats = get_json(server.url + "/stats")
            assert stats["incremental"]["skipped"] == 2
            assert stats["incremental"]["stores"] == 0
        finally:
            server.shutdown_gracefully()

    def test_health_reports_rss_without_a_watchdog(self):
        server = serve(workers=1)
        try:
            memory = get_json(server.url + "/health")["memory"]
            assert memory["max_rss_mb"] is None
            assert not memory["shedding"]
        finally:
            server.shutdown_gracefully()
