"""Stdlib HTTP client for the verification service.

Wraps the NDJSON wire protocol in a retrying client that *cooperates*
with the server's backpressure: a ``429`` (rate limited or queue full)
is retried after the server-provided ``Retry-After`` floor **plus**
decorrelated jitter (:meth:`~repro.harness.parallel.RetryPolicy.\
sleep_seconds`), so a shed fleet of clients does not reconverge on the
same instant and re-trip the limiter. Used by the load harness and the
service tests; importable by any deployment that already has Python —
no third-party HTTP stack.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request

from repro.errors import ReproError, StreamInterruptedError
from repro.harness.parallel import RetryPolicy


class ServiceClient:
    """Minimal client for ``POST /check`` + the GET endpoints.

    ``client_id`` becomes the ``X-Client-Id`` header — the identity the
    server's per-client token buckets meter. ``sleep`` and ``rng`` are
    injectable so tests run without wall-clock waits.
    """

    def __init__(
        self,
        base_url: str,
        client_id: str | None = None,
        retry: RetryPolicy | None = None,
        timeout: float = 120.0,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.retry = retry or RetryPolicy(max_attempts=5)
        self.timeout = timeout
        self._sleep = sleep
        self._rng = rng
        self.retries = 0

    def check(self, payload: dict) -> list[dict]:
        """POST one document; returns the full NDJSON event list.

        Retries ``429`` responses up to ``retry.max_attempts`` times,
        waiting the server's ``Retry-After`` plus jitter between tries;
        exhausting the budget raises :class:`ReproError`. A connection
        lost mid-stream (server crash, socket reset, truncated body)
        raises :class:`StreamInterruptedError` and is retried on the
        same budget — resubmission after a restart is near-free once the
        document's group has completed, because the server memoizes
        every completed document in its incremental tier.
        """
        body = json.dumps(payload).encode("utf-8")
        previous = 0.0
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return self._post_check(body)
            except StreamInterruptedError:
                if attempt >= self.retry.max_attempts:
                    raise
                self.retries += 1
                previous = self.retry.sleep_seconds(
                    attempt, previous=previous or None, rng=self._rng
                )
                self._sleep(previous)
            except urllib.error.HTTPError as error:
                if error.code != 429:
                    detail = _error_detail(error)
                    raise ReproError(
                        f"POST /check failed with {error.code}: {detail}"
                    ) from None
                retry_after = _retry_after_seconds(error)
                error.close()
                if attempt >= self.retry.max_attempts:
                    raise ReproError(
                        f"still shed with 429 after {attempt} attempt(s); "
                        "giving up"
                    ) from None
                self.retries += 1
                previous = self.retry.sleep_seconds(
                    attempt, previous=previous or None, rng=self._rng
                )
                # Server floor first (token refill / queue drain time),
                # jitter on top so retriers spread out.
                self._sleep(retry_after + previous)
        raise AssertionError("unreachable")  # pragma: no cover

    def _post_check(self, body: bytes) -> list[dict]:
        headers = {"Content-Type": "application/json"}
        if self.client_id is not None:
            headers["X-Client-Id"] = self.client_id
        request = urllib.request.Request(
            f"{self.base_url}/check", data=body, headers=headers
        )
        events: list[dict] = []
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                for line in response:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        events.append(json.loads(line))
                    except ValueError as error:
                        # A torn frame: the connection died mid-line.
                        raise StreamInterruptedError(
                            "response stream ended inside an NDJSON frame "
                            f"after {len(events)} event(s)",
                            events,
                        ) from error
        except urllib.error.HTTPError:
            raise  # handled by check(); not a transport failure
        except (
            urllib.error.URLError,
            http.client.HTTPException,
            ConnectionError,
            TimeoutError,
            OSError,
        ) as error:
            raise StreamInterruptedError(
                f"connection lost after {len(events)} event(s): {error}",
                events,
            ) from error
        if not _is_complete(events):
            # HTTP/1.0 close-delimited bodies make a server crash look
            # like a clean EOF — completeness is judged by content.
            raise StreamInterruptedError(
                f"response stream truncated after {len(events)} event(s): "
                "no terminal summary event",
                events,
            )
        return events

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(
            f"{self.base_url}{path}", timeout=self.timeout
        ) as response:
            return json.loads(response.read())

    def health(self) -> dict:
        return self._get("/health")

    def stats(self) -> dict:
        return self._get("/stats")

    def deadletter(self) -> dict:
        return self._get("/deadletter")


def _is_complete(events: list[dict]) -> bool:
    """A stream is complete iff its last event is terminal.

    Terminal events: the ``summary`` (normal completion) or an
    index-less ``error`` (request-level abort — the server said so
    explicitly, nothing more was coming).
    """
    if not events:
        return False
    last = events[-1]
    if last.get("event") == "summary":
        return True
    return last.get("event") == "error" and "index" not in last


def _retry_after_seconds(error: urllib.error.HTTPError) -> float:
    raw = error.headers.get("Retry-After") if error.headers else None
    try:
        return max(0.0, float(raw))
    except (TypeError, ValueError):
        return 1.0


def _error_detail(error: urllib.error.HTTPError) -> str:
    try:
        payload = json.loads(error.read())
        return str(payload.get("error", payload))
    except Exception:
        return error.reason or "unknown error"
    finally:
        error.close()
