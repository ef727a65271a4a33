"""Client behavior when the NDJSON stream dies mid-flight.

The wire protocol is HTTP/1.0 close-delimited, so a crashed server and a
finished response look identical at the transport layer — both are EOF.
The client must therefore judge completeness by *content* (a terminal
``summary`` or index-less ``error`` event), surface anything else as a
structured :class:`StreamInterruptedError` carrying the events it did
receive, and spend its retry budget on resubmission. A scripted raw
socket server plays the failure modes a real one can't do on demand.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.errors import StreamInterruptedError
from repro.harness.parallel import RetryPolicy
from repro.service.client import ServiceClient, _is_complete

ONE_TRY = RetryPolicy(max_attempts=1)
TWO_TRIES = RetryPolicy(max_attempts=2, backoff_base=0.001, backoff_cap=0.002)

CLAIM = json.dumps(
    {"event": "claim", "index": 0, "cached": False, "claim": {"status": "verified"}}
).encode()
SUMMARY = json.dumps({"event": "summary", "claims": 1}).encode()
TERMINAL_ERROR = json.dumps({"event": "error", "error": "boom"}).encode()
CLAIM_ERROR = json.dumps({"event": "error", "index": 0, "error": "poison"}).encode()

HEADERS = b"HTTP/1.0 200 OK\r\nContent-Type: application/x-ndjson\r\n\r\n"


class ScriptedServer:
    """One scripted NDJSON body per request; the last script repeats."""

    def __init__(self, bodies: list):
        self.bodies = list(bodies)
        self.requests = 0
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.url = f"http://127.0.0.1:{self._sock.getsockname()[1]}"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def close(self):
        self._sock.close()

    def _serve(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn:
                self._drain_request(conn)
                body = self.bodies[min(self.requests, len(self.bodies) - 1)]
                self.requests += 1
                if body is not None:
                    try:
                        conn.sendall(HEADERS + body)
                    except OSError:
                        pass
                # Close abruptly either way: HTTP/1.0, EOF ends the body.

    @staticmethod
    def _drain_request(conn):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return
            data += chunk
        head, _, tail = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(tail) < length:
            chunk = conn.recv(65536)
            if not chunk:
                return
            tail += chunk


@pytest.fixture()
def scripted():
    servers = []

    def factory(*bodies):
        server = ScriptedServer(list(bodies))
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def client_for(server, retry=ONE_TRY):
    return ServiceClient(server.url, retry=retry, sleep=lambda _s: None)


class TestCompleteness:
    def test_summary_terminates_a_stream(self):
        assert _is_complete([{"event": "summary"}])

    def test_index_less_error_is_terminal_but_claim_errors_are_not(self):
        assert _is_complete([{"event": "error", "error": "x"}])
        assert not _is_complete([{"event": "error", "index": 3, "error": "x"}])
        assert not _is_complete([{"event": "claim", "index": 0}])
        assert not _is_complete([])

    def test_terminal_error_event_needs_no_retry(self, scripted):
        server = scripted(CLAIM + b"\n" + TERMINAL_ERROR + b"\n")
        client = client_for(server, retry=TWO_TRIES)
        events = client.check({"csv": "x"})
        assert events[-1] == {"event": "error", "error": "boom"}
        assert client.retries == 0 and server.requests == 1


class TestInterruption:
    def test_mid_frame_truncation_is_structured(self, scripted):
        # The connection died halfway through writing event 1.
        server = scripted(CLAIM + b"\n" + SUMMARY[: len(SUMMARY) // 2])
        with pytest.raises(StreamInterruptedError, match="NDJSON frame") as info:
            client_for(server).check({"csv": "x"})
        assert [e["event"] for e in info.value.events] == ["claim"]

    def test_clean_eof_without_summary_is_an_interruption(self, scripted):
        # A crash between frames: valid JSON so far, then EOF. At the
        # transport layer this is indistinguishable from success.
        server = scripted(CLAIM + b"\n")
        with pytest.raises(
            StreamInterruptedError, match="no terminal summary"
        ) as info:
            client_for(server).check({"csv": "x"})
        assert info.value.events == [json.loads(CLAIM)]

    def test_indexed_error_tail_is_an_interruption(self, scripted):
        server = scripted(CLAIM + b"\n" + CLAIM_ERROR + b"\n")
        with pytest.raises(StreamInterruptedError):
            client_for(server).check({"csv": "x"})

    def test_connection_reset_before_headers(self, scripted):
        server = scripted(None)  # accept, read, close without a byte
        with pytest.raises(StreamInterruptedError, match="connection lost") as info:
            client_for(server).check({"csv": "x"})
        assert info.value.events == []

    def test_refused_connection_is_an_interruption_not_a_hang(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(
            f"http://127.0.0.1:{port}", retry=ONE_TRY,
            timeout=5.0, sleep=lambda _s: None,
        )
        with pytest.raises(StreamInterruptedError):
            client.check({"csv": "x"})


class TestRetrySemantics:
    def test_interrupted_stream_is_retried_and_recovers(self, scripted):
        server = scripted(CLAIM + b"\n", CLAIM + b"\n" + SUMMARY + b"\n")
        client = client_for(server, retry=TWO_TRIES)
        events = client.check({"csv": "x"})
        assert events[-1]["event"] == "summary"
        assert client.retries == 1 and server.requests == 2

    def test_exhausted_budget_raises_the_last_interruption(self, scripted):
        server = scripted(CLAIM + b"\n")  # never completes
        client = client_for(server, retry=TWO_TRIES)
        with pytest.raises(StreamInterruptedError) as info:
            client.check({"csv": "x"})
        assert client.retries == 1 and server.requests == 2
        assert info.value.events  # partial progress still reported

    def test_backoff_sleeps_between_stream_retries(self, scripted):
        sleeps = []
        server = scripted(CLAIM + b"\n")
        client = ServiceClient(
            server.url,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=1.0),
            sleep=sleeps.append,
        )
        with pytest.raises(StreamInterruptedError):
            client.check({"csv": "x"})
        assert len(sleeps) == 2
        assert all(s > 0 for s in sleeps)
