"""End-to-end tests for the service front end (``python -m repro serve``).

Against a live loopback server: queued-path verdicts are bit-identical
to the one-shot ``check`` CLI, also under concurrency; fingerprint
references pin the registered data and dictionary; the warm pool is
content-keyed and LRU-bounded; the incremental tier memoizes whole
documents, so a CSV or sentence edit re-verifies every claim and
articles that share claims never share verdicts; a queued group runs on
the checker admission registered, so data edited or deleted after
admission never reaches its verdicts; the NDJSON stream frames correctly
and answers a memoized document without queueing; per-client rate
limiting and queue-depth backpressure shed with ``429`` +
``Retry-After`` (and the stdlib client honors it); request
errors map to 400/404/405/411/413/422; a poison group runs once and
lands in the dead-letter quarantine without poisoning the stream; a
journal write that fails mid-ack still ends the stream and leaves the
workers serving; a client hangup is counted, not raised; a graceful drain
completes leased groups and journals pending jobs, a restarted service
resumes and completes them, and a ``kill -9`` mid-load loses nothing.
"""

from __future__ import annotations

import csv
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.corpus.builtin import nfl_database
from repro.faults import ENV_FAULTS, ENV_STATE, FaultSpec, active, encode_specs
from repro.harness.parallel import RetryPolicy
from repro.service import CheckRequest, ServiceClient
from repro.service.aio import QueueService, create_async_server
from repro.service.protocol import MAX_BODY_BYTES

from tests.service.conftest import (
    NFL_CSV_EDITED,
    claims_of,
    cli_claims,
    get_json,
    post_check,
)

def serve(**kwargs):
    server = create_async_server(port=0, **kwargs)
    server.start_in_thread()
    return server


@pytest.fixture()
def server():
    """A server whose counters only requests move."""
    instance = serve()
    try:
        yield instance
    finally:
        instance.shutdown_gracefully()


def wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def address(server) -> tuple[str, int]:
    parts = urlsplit(server.url)
    return parts.hostname, parts.port


def rejected(url: str, payload: dict) -> tuple[int, dict]:
    """POST a /check the server must refuse; (status, JSON error body)."""
    request = urllib.request.Request(
        url + "/check", data=json.dumps(payload).encode(), method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    try:
        return excinfo.value.code, json.loads(excinfo.value.read())
    finally:
        excinfo.value.close()


def nfl_payload(data_files, **extra) -> dict:
    return {
        "csv": [str(data_files["nfl"])],
        "article_path": str(data_files["nfl_article"]),
        **extra,
    }


def admitted_copy(tmp_path, data_files):
    """The NFL CSV as admitted, under the same table name (file stem)."""
    copy = tmp_path / "admitted" / data_files["nfl"].name
    copy.parent.mkdir()
    copy.write_text(data_files["nfl"].read_text())
    return copy


def post_in_thread(url: str, payload: dict):
    """Start one POST /check; returns a function awaiting its events."""
    results: list[list[dict]] = []
    errors: list[BaseException] = []

    def run() -> None:
        try:
            results.append(post_check(url, payload))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()

    def finish(timeout: float = 60.0) -> list[dict]:
        thread.join(timeout)
        assert not thread.is_alive()
        assert not errors
        return results[0]

    return finish


class TestBitIdentity:
    def test_queued_verdicts_match_the_one_shot_cli(
        self, data_files, capsys
    ):
        server = serve(workers=2)
        try:
            for csv, article in (
                ("nfl", "nfl_article"), ("sales", "sales_article"),
            ):
                events = post_check(
                    server.url,
                    {
                        "csv": str(data_files[csv]),
                        "article_path": str(data_files[article]),
                    },
                )
                oracle = cli_claims(
                    capsys, data_files[csv], data_files[article]
                )
                assert claims_of(events) == oracle
                summary = events[-1]
                assert summary["event"] == "summary"
                assert summary["errors"] == 0
                assert summary["evaluated_claims"] == summary["claims"]
        finally:
            server.shutdown_gracefully()

    def test_concurrent_requests_match_one_shot_cli(
        self, server, data_files, capsys
    ):
        """Parallel requests across two databases == the CLI, bit for bit."""
        jobs = {
            name: {
                "csv": [str(data_files[name])],
                "article_path": str(data_files[f"{name}_article"]),
            }
            for name in ("nfl", "sales")
        }
        clients = [
            (name, post_in_thread(server.url, jobs[name]))
            for _ in range(3)
            for name in jobs
        ]
        oracles = {
            name: cli_claims(
                capsys, data_files[name], data_files[f"{name}_article"]
            )
            for name in jobs
        }
        for name, finish in clients:
            assert claims_of(finish()) == oracles[name]
        health = get_json(server.url + "/health")
        assert health["requests"] == 6
        assert health["databases"] == 2

    def test_resubmission_is_served_from_the_incremental_tier(
        self, data_files
    ):
        server = serve(workers=1)
        try:
            payload = {
                "csv": str(data_files["nfl"]),
                "article_path": str(data_files["nfl_article"]),
            }
            first = post_check(server.url, payload)
            second = post_check(server.url, payload)
            assert claims_of(first) == claims_of(second)
            assert all(
                e["cached"] for e in second if e["event"] == "claim"
            )
            assert second[-1]["cached_claims"] == second[-1]["claims"]
            assert second[-1]["evaluated_claims"] == 0
            assert server.service.queue.stats()["enqueued"] == len(
                claims_of(first)
            )
        finally:
            server.shutdown_gracefully()


class TestFingerprintReferences:
    def test_database_reference_serves_from_registered_checker(
        self, server, data_files
    ):
        first = post_check(server.url, nfl_payload(data_files, incremental=False))
        fingerprint = first[0]["database_fingerprint"]
        by_reference = post_check(
            server.url,
            {
                "database": fingerprint,
                "article_path": str(data_files["nfl_article"]),
                "incremental": False,
            },
        )
        assert claims_of(by_reference) == claims_of(first)
        assert by_reference[0]["database_fingerprint"] == fingerprint
        assert get_json(server.url + "/health")["databases"] == 1

    def test_checker_fingerprint_pins_dictionary_exactly(
        self, server, data_files, tmp_path
    ):
        """Same CSV content under two dictionaries: the content
        fingerprint becomes ambiguous, the checker fingerprint stays
        exact."""
        dict_a = tmp_path / "dict_a.csv"
        dict_a.write_text("column,description\nGames,suspension length\n")
        dict_b = tmp_path / "dict_b.csv"
        dict_b.write_text("column,description\nGames,match count\n")
        first = post_check(
            server.url, nfl_payload(data_files, data_dict_path=str(dict_a))
        )
        second = post_check(
            server.url, nfl_payload(data_files, data_dict_path=str(dict_b))
        )
        assert (
            first[0]["database_fingerprint"]
            == second[0]["database_fingerprint"]
        )
        assert (
            first[0]["checker_fingerprint"] != second[0]["checker_fingerprint"]
        )

        # The content fingerprint is now ambiguous -> 422 with guidance.
        status, body = rejected(
            server.url,
            {
                "database": first[0]["database_fingerprint"],
                "article_path": str(data_files["nfl_article"]),
            },
        )
        assert status == 422
        assert "checker_fingerprint" in body["error"]

        # The checker fingerprints still resolve, each to its own scope.
        for events in (first, second):
            replay = post_check(
                server.url,
                {
                    "database": events[0]["checker_fingerprint"],
                    "article_path": str(data_files["nfl_article"]),
                },
            )
            assert (
                replay[0]["checker_fingerprint"]
                == events[0]["checker_fingerprint"]
            )
            assert claims_of(replay) == claims_of(events)

    def test_unknown_database_reference_is_rejected(self, server):
        status, body = rejected(
            server.url, {"database": "f" * 64, "article": "Four things."}
        )
        assert status == 422
        assert "unknown database fingerprint" in body["error"]

    def test_lru_eviction_bounds_warm_checkers(self, data_files):
        server = serve(max_databases=1)
        try:
            first = post_check(server.url, nfl_payload(data_files))
            post_check(
                server.url,
                {
                    "csv": [str(data_files["sales"])],
                    "article_path": str(data_files["sales_article"]),
                },
            )
            # The NFL checker was evicted: pool holds one database ...
            assert get_json(server.url + "/health")["databases"] == 1
            # ... its stale reference is rejected ...
            status, _ = rejected(
                server.url,
                {
                    "database": first[0]["database_fingerprint"],
                    "article_path": str(data_files["nfl_article"]),
                },
            )
            assert status == 422
            # ... and resubmitting rebuilds with identical verdicts,
            # served straight from the surviving incremental tier.
            again = post_check(server.url, nfl_payload(data_files))
            assert claims_of(again) == claims_of(first)
            assert all(e["cached"] for e in again if e["event"] == "claim")
        finally:
            server.shutdown_gracefully()

    def test_warm_pool_keyed_by_content_not_path(
        self, server, data_files, tmp_path
    ):
        copied_csv = admitted_copy(tmp_path, data_files)
        post_check(server.url, nfl_payload(data_files))
        post_check(
            server.url, dict(nfl_payload(data_files), csv=[str(copied_csv)])
        )
        # Same content fingerprint -> one pooled checker, not two.
        assert get_json(server.url + "/health")["databases"] == 1


class TestIncrementalTier:
    def test_csv_edit_invalidates_by_fingerprint(
        self, server, data_files, capsys
    ):
        payload = nfl_payload(data_files)
        first = post_check(server.url, payload)
        # Remove a row: the database content fingerprint must change.
        data_files["nfl"].write_text(NFL_CSV_EDITED)
        second = post_check(server.url, payload)

        assert (
            second[0]["database_fingerprint"]
            != first[0]["database_fingerprint"]
        )
        # Every claim re-evaluated: the old fingerprint keys are unreachable.
        assert all(not e["cached"] for e in second if e["event"] == "claim")
        assert second[-1]["evaluated_claims"] == second[-1]["claims"]
        # ... and against the *new* data: identical to a cold CLI run on it.
        assert claims_of(second) == cli_claims(
            capsys, data_files["nfl"], data_files["nfl_article"]
        )
        # Two distinct database contents are now pooled.
        assert get_json(server.url + "/health")["databases"] == 2

    def test_document_edit_reevaluates_every_claim(
        self, server, data_files, tmp_path, capsys
    ):
        article = tmp_path / "edit.txt"
        article.write_text(
            "There were four previous lifetime bans in my database.\n\n"
            "Exactly one was for gambling."
        )
        payload = {"csv": [str(data_files["nfl"])], "article_path": str(article)}
        first = post_check(server.url, payload)
        assert len(claims_of(first)) == 2

        article.write_text(
            "There were nine previous lifetime bans in my database.\n\n"
            "Exactly one was for gambling."
        )
        second = post_check(server.url, payload)
        assert all(not e["cached"] for e in second if e["event"] == "claim")
        assert second[-1]["evaluated_claims"] == second[-1]["claims"] == 2
        assert second[-1]["cached_claims"] == 0
        assert claims_of(second)[0]["status"] == "erroneous"
        assert claims_of(second) == cli_claims(
            capsys, data_files["nfl"], article
        )

    def test_articles_sharing_claims_never_share_verdicts(
        self, tmp_path, capsys
    ):
        """Two articles on the builtin NFL database share their claims, and
        the jointly learned priors give the shared claims different
        verdicts in each. Served in either order, and after an edit and
        resubmission, every stream is byte-identical to ``check --json``
        of that article: no verdict crosses from one document's batch
        into another's."""
        [table] = nfl_database().tables
        csv_path = tmp_path / f"{table.name}.csv"
        with csv_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([column.name for column in table.columns])
            writer.writerows(table.rows)
        paragraphs = [
            "There were only four previous lifetime bans in my database.",
            "Three were for repeated substance abuse, one was for gambling.",
            "Five players were suspended for 16 games.",
        ]
        articles = {}
        for name, body in (
            ("long", paragraphs),
            ("short", paragraphs[:2]),
            ("edited", paragraphs[:2] + ["Six players were suspended."]),
        ):
            articles[name] = tmp_path / f"{name}.html"
            articles[name].write_text(
                "<title>Punishing players</title><h1>Lifetime bans</h1>"
                + "".join(f"<p>{text}</p>" for text in body)
            )

        def oracle(name):
            return json.dumps(
                cli_claims(capsys, csv_path, articles[name]), sort_keys=True
            )

        def served(url, name):
            events = post_check(
                url,
                {"csv": [str(csv_path)], "article_path": str(articles[name])},
            )
            return json.dumps(claims_of(events), sort_keys=True)

        expected = {name: oracle(name) for name in articles}
        # The inputs must make per-claim reuse visible: the short
        # article's claims are a prefix of the long one's, yet verified
        # jointly they get other verdicts.
        long_claims = json.loads(expected["long"])
        short_claims = json.loads(expected["short"])
        assert long_claims[: len(short_claims)] != short_claims
        for order in (("long", "short", "edited"), ("short", "long")):
            server = serve(workers=1)
            try:
                for name in order:
                    assert served(server.url, name) == expected[name], order
            finally:
                server.shutdown_gracefully()

    def test_incremental_opt_out_per_request(self, server, data_files):
        payload = nfl_payload(data_files, incremental=False)
        first = post_check(server.url, payload)
        second = post_check(server.url, payload)
        for events in (first, second):
            assert all(
                not e["cached"] for e in events if e["event"] == "claim"
            )
            assert events[-1]["evaluated_claims"] == events[-1]["claims"]
        assert claims_of(first) == claims_of(second)


class TestAdmittedChecker:
    """A queued group runs on the checker admission registered."""

    @pytest.mark.faults
    def test_data_edited_while_queued_is_not_verified(
        self, data_files, tmp_path, capsys
    ):
        admitted = admitted_copy(tmp_path, data_files)
        oracle = cli_claims(capsys, admitted, data_files["nfl_article"])
        server = serve(workers=1)
        try:
            # Hold the leased group, then edit the CSV under it.
            with active(FaultSpec("queue.exec", "sleep", seconds=0.5)):
                finish = post_in_thread(server.url, nfl_payload(data_files))
                assert wait_for(
                    lambda: server.service.queue.stats()["leased"] > 0
                )
                data_files["nfl"].write_text(NFL_CSV_EDITED)
                events = finish()
            scope = events[0]["checker_fingerprint"]
            assert claims_of(events) == oracle
            assert oracle != cli_claims(
                capsys, data_files["nfl"], data_files["nfl_article"]
            )
            assert get_json(server.url + "/health")["databases"] == 1
            # The one memoized document holds the admitted data's
            # verdicts, under its admitted scope.
            memo = dict(server.service.service.cache._entries)
            [(key, (payloads, _))] = memo.items()
            assert key[0] == scope
            assert payloads == oracle
        finally:
            server.shutdown_gracefully()

    @pytest.mark.faults
    def test_data_deleted_while_queued_still_verifies(
        self, data_files, capsys
    ):
        oracle = cli_claims(capsys, data_files["nfl"], data_files["nfl_article"])
        server = serve(workers=1)
        try:
            with active(FaultSpec("queue.exec", "sleep", seconds=0.5)):
                finish = post_in_thread(server.url, nfl_payload(data_files))
                assert wait_for(
                    lambda: server.service.queue.stats()["leased"] > 0
                )
                data_files["nfl"].unlink()  # workers never re-read it
                events = finish()
            assert claims_of(events) == oracle
            assert events[-1]["errors"] == 0
        finally:
            server.shutdown_gracefully()

    def test_resumed_group_on_changed_data_is_nacked(
        self, tmp_path, data_files
    ):
        """An unregistered scope is rebuilt from the journal; when the
        rebuilt data no longer matches, the group dead-letters instead
        of acking other data's verdicts under the admitted scope."""
        queue_dir = tmp_path / "queue"
        request = CheckRequest(
            csv_paths=(str(data_files["nfl"]),),
            article_path=str(data_files["nfl_article"]),
        )
        first = QueueService(queue_dir=queue_dir, workers=1)
        admission = first.admit(request, "client", lambda index: lambda *a: None)
        n = len(admission.pending)
        assert first.drain() == n
        data_files["nfl"].write_text(NFL_CSV_EDITED)

        second = QueueService(queue_dir=queue_dir, workers=1)
        second.start()
        try:
            assert wait_for(
                lambda: second.queue.stats()["deadletter"] == n
            ), second.queue.stats()
            dead = second.deadletter()
            assert all(
                "data changed since admission" in d["error"] for d in dead
            )
            assert second.queue.stats()["acked"] == 0
            assert len(second.service.cache) == 0
            assert len(second.service.pool) == 0
        finally:
            second.drain()


class TestStreamingProtocol:
    def test_wire_framing(self, server, data_files):
        """Read the raw socket: headers, then one JSON object per line."""
        body = json.dumps(nfl_payload(data_files)).encode("utf-8")
        with socket.create_connection(address(server), timeout=30) as sock:
            sock.sendall(
                b"POST /check HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            raw = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        headers, _, payload = raw.partition(b"\r\n\r\n")
        assert b" 200 " in headers.splitlines()[0]
        assert b"application/x-ndjson" in headers
        lines = payload.split(b"\n")
        assert lines[-1] == b""  # every event line is newline-terminated
        events = [json.loads(line) for line in lines[:-1]]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "summary"
        assert set(kinds[1:-1]) == {"claim"}
        assert events[0]["claims"] == len(kinds) - 2

    @pytest.mark.faults
    def test_cached_claims_stream_before_fresh_work(self, data_files):
        """A memoized document is answered at admission, never queued
        behind a document whose group is still running."""
        payload = nfl_payload(data_files)
        sales = {
            "csv": [str(data_files["sales"])],
            "article_path": str(data_files["sales_article"]),
        }
        server = serve(workers=1)
        try:
            first = post_check(server.url, payload)
            with active(FaultSpec("queue.exec", "sleep", seconds=1.0)):
                finish = post_in_thread(server.url, sales)
                assert wait_for(
                    lambda: server.service.queue.stats()["leased"] > 0
                )
                again = post_check(server.url, payload)
                assert server.service.queue.stats()["leased"] > 0
                fresh = finish()
            assert all(e["cached"] for e in again if e["event"] == "claim")
            assert claims_of(again) == claims_of(first)
            assert again[0]["queued"] == 0
            assert not any(
                e["cached"] for e in fresh if e["event"] == "claim"
            )
        finally:
            server.shutdown_gracefully()


class TestServiceSurface:
    def test_health_and_stats_counters(self, server, data_files):
        payload = nfl_payload(data_files)
        post_check(server.url, payload)
        post_check(server.url, payload)
        assert get_json(server.url + "/health")["status"] == "ok"
        stats = get_json(server.url + "/stats")
        assert stats["requests"] == 2
        assert stats["claims_served"] == 2 * stats["claims_from_cache"]
        engine = stats["engine"]
        assert engine["physical_queries"] > 0
        assert 0.0 <= engine["memory_cache_hit_rate"] <= 1.0
        incremental = stats["incremental"]
        assert incremental["entries"] == incremental["hits"] == 1

    def test_error_statuses(self, server):
        def status_of(method, path, body=None):
            request = urllib.request.Request(
                server.url + path, data=body, method=method
            )
            try:
                with urllib.request.urlopen(request) as response:
                    return response.status
            except urllib.error.HTTPError as error:
                error.close()
                return error.code

        assert status_of("GET", "/nope") == 404
        assert status_of("GET", "/audit") == 404
        assert status_of("POST", "/nope", b"{}") == 404
        assert status_of("PUT", "/check", b"{}") == 405
        assert status_of("POST", "/check", b"") == 411
        assert status_of("POST", "/check", b"not json") == 400
        assert (
            status_of("POST", "/check", json.dumps({"article": "x"}).encode())
            == 400
        )
        missing = json.dumps(
            {"csv": ["/nonexistent/gone.csv"], "article": "Four things."}
        ).encode()
        assert status_of("POST", "/check", missing) == 422
        health = get_json(server.url + "/health")
        # Routing 404/405s are not client payload errors; the other four are.
        assert health["request_errors"] == 4
        stats = get_json(server.url + "/stats")
        assert "audit" not in health and "audit" not in stats
        assert not [n for n in stats["engine"] if n.startswith("audit_")]

    def test_oversized_body_rejected_before_buffering(self, server):
        with socket.create_connection(address(server), timeout=30) as sock:
            sock.sendall(
                b"POST /check HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\nConnection: close\r\n\r\n"
            )
            status_line = b""
            while not status_line.endswith(b"\r\n"):
                chunk = sock.recv(1)
                if not chunk:
                    break
                status_line += chunk
        assert b" 413 " in status_line


class TestBackpressure:
    def test_rate_limited_client_gets_429_with_retry_after(
        self, data_files
    ):
        server = serve(workers=1, rate_limit=0.001, rate_burst=1.0)
        try:
            payload = {
                "csv": str(data_files["nfl"]),
                "article_path": str(data_files["nfl_article"]),
            }
            post_check(server.url, payload)  # spends alice's one token
            body = json.dumps(payload).encode()
            request = urllib.request.Request(
                server.url + "/check",
                data=body,
                headers={
                    "Content-Type": "application/json",
                    "X-Client-Id": "alice",
                },
            )
            # The first request came from the peer-address identity, so
            # alice still has her burst; spend it, then expect the shed.
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                response.read()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    urllib.request.Request(
                        server.url + "/check",
                        data=body,
                        headers={
                            "Content-Type": "application/json",
                            "X-Client-Id": "alice",
                        },
                    )
                )
            assert excinfo.value.code == 429
            assert float(excinfo.value.headers["Retry-After"]) >= 1
            excinfo.value.close()
            # A different client id is not affected.
            with urllib.request.urlopen(
                urllib.request.Request(
                    server.url + "/check",
                    data=body,
                    headers={
                        "Content-Type": "application/json",
                        "X-Client-Id": "bob",
                    },
                )
            ) as response:
                assert response.status == 200
        finally:
            server.shutdown_gracefully()

    def test_service_client_honors_retry_after_with_jitter(
        self, data_files
    ):
        server = serve(workers=1, rate_limit=5.0, rate_burst=1.0)
        try:
            payload = {
                "csv": str(data_files["nfl"]),
                "article_path": str(data_files["nfl_article"]),
            }
            slept: list[float] = []

            def sleep(seconds: float) -> None:
                # Record the computed wait, but cap the real one so the
                # test stays fast; tokens refill at 5/s regardless.
                slept.append(seconds)
                time.sleep(min(seconds, 0.5))

            client = ServiceClient(
                server.url,
                client_id="carol",
                retry=RetryPolicy(max_attempts=4),
                sleep=sleep,
            )
            first = client.check(payload)
            second = client.check(payload)  # shed once, then retried
            assert claims_of(first) == claims_of(second)
            assert client.retries >= 1
            # Each wait = server Retry-After floor + client jitter.
            assert all(delay > 0 for delay in slept)
        finally:
            server.shutdown_gracefully()

    def test_full_queue_sheds_with_429(self, data_files):
        # Capacity below the document's claim count: admission must
        # reject up front (429 + Retry-After), never half-enqueue.
        server = serve(workers=1, queue_capacity=1)
        try:
            body = json.dumps(
                {
                    "csv": str(data_files["nfl"]),
                    "article_path": str(data_files["nfl_article"]),
                    "incremental": False,
                }
            ).encode()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    urllib.request.Request(
                        server.url + "/check",
                        data=body,
                        headers={"Content-Type": "application/json"},
                    )
                )
            assert excinfo.value.code == 429
            assert "Retry-After" in excinfo.value.headers
            excinfo.value.close()
            assert server.service.queue.stats()["enqueued"] == 0
        finally:
            server.shutdown_gracefully()


@pytest.mark.faults
class TestFaultTolerance:
    def test_poison_jobs_deadletter_without_poisoning_the_stream(
        self, data_files
    ):
        server = serve(workers=1)
        try:
            with active(
                FaultSpec("queue.exec", "raise", times=0)
            ):
                events = post_check(
                    server.url,
                    {
                        "csv": str(data_files["nfl"]),
                        "article_path": str(data_files["nfl_article"]),
                    },
                )
            summary = events[-1]
            assert summary["event"] == "summary"
            n = summary["claims"]
            errors = [
                e for e in events if e["event"] == "error" and "index" in e
            ]
            assert len(errors) == n and summary["errors"] == n
            dead = get_json(server.url + "/deadletter")
            assert dead["count"] == n
            assert all("injected fault" in d["error"] for d in dead["deadletter"])
            # One run, no retry: the group failed once and ended.
            assert all(d["attempts"] == 1 for d in dead["deadletter"])
            assert server.service.queue.stats()["deadlettered"] == n
            assert server.service.workers.stats()["groups_failed"] == 1
        finally:
            server.shutdown_gracefully()

    def test_journal_write_failure_on_ack_still_ends_the_stream(
        self, tmp_path, data_files, capsys, monkeypatch
    ):
        server = serve(workers=1, queue_dir=tmp_path / "queue")
        queue = server.service.queue
        append = queue._append
        failed = []

        def disk_full_on_first_ack(record):
            if record["op"] == "ack" and not failed:
                failed.append(record["id"])
                raise OSError(28, "No space left on device")
            append(record)

        monkeypatch.setattr(queue, "_append", disk_full_on_first_ack)
        client = ServiceClient(
            server.url, retry=RetryPolicy(max_attempts=1), timeout=10.0
        )
        try:
            started = time.monotonic()
            events = client.check(nfl_payload(data_files))
            assert time.monotonic() - started < 10.0
            assert failed, "the first ack's journal write raised"
            summary = events[-1]
            assert summary["event"] == "summary"
            n = summary["claims"]
            ended = [
                e for e in events
                if e["event"] == "claim"
                or (e["event"] == "error" and "index" in e)
            ]
            # One event per claim: the acked one, the rest dead-lettered.
            assert sorted(e["index"] for e in ended) == list(range(n))
            assert summary["errors"] == n - 1
            assert get_json(server.url + "/deadletter")["count"] == n - 1
            # The worker survived: the next document verifies normally.
            oracle = cli_claims(
                capsys, data_files["sales"], data_files["sales_article"]
            )
            sales = client.check(
                {
                    "csv": [str(data_files["sales"])],
                    "article_path": str(data_files["sales_article"]),
                }
            )
            assert claims_of(sales) == oracle
            assert sales[-1]["errors"] == 0
        finally:
            server.shutdown_gracefully()

    def test_client_hangup_is_counted_not_raised(self, data_files):
        server = serve(workers=1)
        try:
            body = json.dumps(nfl_payload(data_files)).encode()
            # Hold the group so the server is still mid-stream when the
            # client vanishes; SO_LINGER 0 turns close() into a RST, so
            # the server's next write genuinely fails.
            with active(FaultSpec("queue.exec", "sleep", seconds=0.5)):
                with socket.create_connection(
                    address(server), timeout=30
                ) as sock:
                    sock.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                    sock.sendall(
                        b"POST /check HTTP/1.1\r\nHost: localhost\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: " + str(len(body)).encode()
                        + b"\r\nConnection: close\r\n\r\n" + body
                    )
                    sock.recv(1)  # admitted: the stream has started
                assert wait_for(
                    lambda: get_json(server.url + "/stats")["dropped_streams"]
                    >= 1
                )
            stats = get_json(server.url + "/stats")
            assert stats["dropped_streams"] == 1
            # A hangup is not a server error.
            assert stats["request_errors"] == 0
        finally:
            server.shutdown_gracefully()


class TestGracefulShutdown:
    @pytest.mark.faults
    def test_shutdown_completes_a_leased_group_stream(self, data_files):
        server = serve(workers=1)
        with active(FaultSpec("queue.exec", "sleep", seconds=0.5)):
            finish = post_in_thread(server.url, nfl_payload(data_files))
            assert wait_for(lambda: server.service.queue.stats()["leased"] > 0)
            server.shutdown_gracefully()  # blocks until the stream is done
            events = finish(timeout=30)
        assert events[0]["event"] == "start"
        summary = events[-1]
        assert summary["event"] == "summary"
        assert summary["evaluated_claims"] == summary["claims"] > 0
        assert summary["errors"] == 0

    def test_no_new_connections_after_shutdown(self):
        server = serve(workers=1)
        url = server.url
        assert get_json(url + "/health")["status"] == "ok"
        server.shutdown_gracefully()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            get_json(url + "/health")


class TestDrainAndResume:
    def test_drain_journals_pending_jobs_and_restart_completes_them(
        self, tmp_path, data_files, capsys
    ):
        queue_dir = tmp_path / "queue"
        request = CheckRequest(
            csv_paths=(str(data_files["nfl"]),),
            article_path=str(data_files["nfl_article"]),
        )
        told: list[str] = []
        first = QueueService(queue_dir=queue_dir, workers=1)
        # Workers never started: everything admitted stays pending.
        admission = first.admit(
            request,
            "client",
            lambda index: lambda kind, job, p: told.append(kind),
        )
        n = len(admission.pending)
        assert n > 0
        assert first.drain() == n
        assert told == ["drained"] * n

        second = QueueService(queue_dir=queue_dir, workers=1)
        assert second.queue.resumed == n
        second.start()  # journaled jobs execute with no client attached
        assert wait_for(
            lambda: second.queue.stats()["acked"] == n
        ), second.queue.stats()
        # The resumed executions landed in the incremental tier:
        # resubmission answers entirely from cache, bit-identical to the
        # one-shot CLI.
        replay = second.admit(
            request, "client", lambda index: lambda *a: None
        )
        assert replay.n_cached == n and not replay.pending
        payloads = [
            e["claim"] for e in replay.events if e["event"] == "claim"
        ]
        oracle = cli_claims(
            capsys, data_files["nfl"], data_files["nfl_article"]
        )
        assert payloads == oracle
        second.drain()


@pytest.mark.faults
class TestKillDashNine:
    def test_sigkill_mid_load_resumes_from_the_journal(
        self, tmp_path, data_files, capsys
    ):
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[2]
        queue_dir = tmp_path / "queue"
        state_dir = tmp_path / "fault-state"
        state_dir.mkdir()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        # Stall every leased group so admitted jobs stay unacked long
        # enough to be killed mid-load.
        env[ENV_FAULTS] = encode_specs(
            (FaultSpec("queue.exec", "sleep", seconds=30.0, times=0),)
        )
        env[ENV_STATE] = str(state_dir)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--queue-dir", str(queue_dir), "--queue-workers", "1",
            ],
            env=env,
            cwd=repo_root,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            url = banner.split("listening on ", 1)[1].split()[0]
            # Admission succeeds; the stream will never finish (workers
            # are stalled), so fire-and-forget the request body.
            body = json.dumps(
                {
                    "csv": str(data_files["nfl"]),
                    "article_path": str(data_files["nfl_article"]),
                }
            ).encode()
            request = urllib.request.Request(
                url + "/check",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(TimeoutError):
                with urllib.request.urlopen(request, timeout=3) as response:
                    response.read()
            journal = queue_dir / "queue.journal"
            assert wait_for(journal.exists)
            puts = [
                json.loads(line)
                for line in journal.read_text().splitlines()
                if json.loads(line).get("op") == "put"
            ]
            assert puts, "jobs journaled before the kill"
        finally:
            proc.kill()  # SIGKILL: no drain, no compaction, no cleanup
            proc.wait(timeout=10)

        # Restart without faults: the journaled jobs must complete.
        env.pop(ENV_FAULTS)
        env.pop(ENV_STATE)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--queue-dir", str(queue_dir), "--queue-workers", "2",
            ],
            env=env,
            cwd=repo_root,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert f"resumed {len(puts)} journaled job(s)" in banner
            url = banner.split("listening on ", 1)[1].split()[0]
            assert wait_for(
                lambda: get_json(url + "/health")["queue"]["acked"]
                == len(puts),
                timeout=30.0,
            )
            # Bit-identity across the crash: resubmission is answered
            # from the resumed executions, matching the one-shot CLI.
            events = post_check(
                url,
                {
                    "csv": str(data_files["nfl"]),
                    "article_path": str(data_files["nfl_article"]),
                },
            )
            assert all(
                e["cached"] for e in events if e["event"] == "claim"
            )
            oracle = cli_claims(
                capsys, data_files["nfl"], data_files["nfl_article"]
            )
            assert claims_of(events) == oracle
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
