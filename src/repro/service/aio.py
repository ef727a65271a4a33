"""The HTTP front end of ``python -m repro serve``: asyncio over a queue.

Admission is decoupled from execution, so no thread is held per
in-flight document:

- **Admission** (cheap, bounded): parse the request, rate-limit the
  client (per-client token buckets — ``X-Client-Id`` header or peer
  address), warm or reuse the pooled checker, detect claims, answer
  cached claims immediately, and enqueue one durable job per fresh claim
  (grouped per document so joint inference is preserved). Admission runs
  on the default executor; the event loop itself never blocks on the
  checker.
- **Execution**: the :class:`~repro.service.workers.WorkerPool` leases
  job groups off the :class:`~repro.service.queue.DurableJobQueue`,
  verifies each on the checker admission registered under the group's
  scope fingerprint, and acks with verdict payloads.
- **Delivery**: each queued job carries a subscriber that trampolines
  the ack into the connection's asyncio queue
  (``loop.call_soon_threadsafe``); the handler streams NDJSON claim
  events in ack order and finishes with a summary.

Backpressure is explicit: a rate-limited client or a full queue gets
``429`` + ``Retry-After`` (depth-aware for the queue) *before* any work
is admitted. Shutdown is graceful: stop accepting, let leased jobs
finish and ack, journal the rest — a restarted server resumes them from
the queue directory and verifies them with no client attached (verdicts
land in the incremental tier, so resubmission is a cache hit).

The dialect is HTTP/1.0 with close-delimited NDJSON streams (see
:mod:`repro.service.protocol`).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.core.checker import claim_fingerprint
from repro.core.config import AggCheckerConfig
from repro.errors import (
    AdmissionRejectedError,
    CsvFormatError,
    InjectedFault,
    QueueFullError,
    RateLimitedError,
    ReproError,
)
from repro.harness.parallel import RetryPolicy
from repro.service.memwatch import MemoryWatchdog, read_rss_mb
from repro.service.protocol import (
    MAX_BODY_BYTES,
    CheckRequest,
    ProtocolError,
    claim_event,
    data_spec,
    encode_event,
    error_event,
)
from repro.service.queue import DurableJobQueue
from repro.service.ratelimit import ClientRateLimiter
from repro.service.warm import PreparedCheck, VerificationService
from repro.service.workers import CircuitBreaker, GroupExecutor, WorkerPool

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Seconds a connection may sit idle while sending its request head.
_HEADER_TIMEOUT = 30.0


@dataclass
class Admission:
    """Everything the handler needs after one document is admitted."""

    prepared: PreparedCheck
    #: start event + immediately-answerable claim events, emission order.
    events: list = field(default_factory=list)
    #: ``(job id, claim index)`` per registered subscriber — one delayed
    #: event is owed for each entry.
    pending: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    n_cached: int = 0
    n_deduped: int = 0
    started: float = 0.0


class QueueService:
    """The queue-backed service core: admission, execution, delivery.

    Composes the warm :class:`VerificationService` (checkers, incremental
    tier, reference registry), the :class:`DurableJobQueue`, the
    :class:`WorkerPool` with its :class:`CircuitBreaker`, and the
    per-client :class:`ClientRateLimiter`. The HTTP layer above is a thin
    framing shim; tests drive :meth:`admit` directly.
    """

    def __init__(
        self,
        config: AggCheckerConfig | None = None,
        queue_dir: str | Path | None = None,
        queue_capacity: int = 1024,
        workers: int = 2,
        visibility_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        rate_limit: float = 0.0,
        rate_burst: float | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        incremental: bool = True,
        incremental_capacity: int = 16384,
        max_databases: int = 64,
        request_timeout: float | None = None,
        stream_timeout: float | None = None,
        fsync: bool = False,
        max_request_cost: int | None = None,
        max_rss_mb: float | None = None,
        rss_interval: float = 1.0,
    ) -> None:
        self.service = VerificationService(
            config,
            incremental=incremental,
            incremental_capacity=incremental_capacity,
            max_databases=max_databases,
        )
        retry = retry or RetryPolicy()
        self.queue = DurableJobQueue(
            queue_dir,
            capacity=queue_capacity,
            retry=retry,
            fsync=fsync,
            # Degraded verdicts (exhausted budget, open breaker) must not
            # be pinned by queue idempotency: resubmission re-executes,
            # exactly as the incremental tier refuses to memoize them.
            reusable_result=lambda payload: not payload.get("degraded"),
        )
        self.breaker = CircuitBreaker(breaker_threshold, breaker_cooldown)
        self.executor = GroupExecutor(
            self.service, self.breaker, request_timeout
        )
        self.workers = WorkerPool(
            self.queue,
            self.executor,
            workers=workers,
            visibility_timeout=visibility_timeout,
        )
        self.limiter = ClientRateLimiter(rate_limit, rate_burst)
        #: Cost-based admission: reject requests whose estimated cost
        #: (tables x rows x claims — a coarse upper bound on demanded
        #: work) exceeds this, with 413 + machine-readable reason,
        #: *before* anything reaches the queue. None disables the check.
        self.max_request_cost = max_request_cost
        self.rejected_cost = 0
        #: Memory-pressure shedding: a stdlib-only RSS sampler that holds
        #: the circuit breaker open while the process is over
        #: ``max_rss_mb``, so execution degrades instead of OOMing.
        self.memwatch = (
            MemoryWatchdog(self.breaker, max_rss_mb, rss_interval)
            if max_rss_mb is not None
            else None
        )
        if stream_timeout is None:
            # Worst case before a job must have resolved: every attempt
            # times out its lease, plus scheduling slack.
            stream_timeout = (
                (retry.max_attempts + 1) * visibility_timeout + 30.0
            )
        self.stream_timeout = stream_timeout
        self._drain_lock = threading.Lock()
        self._drained = False
        self.draining = False
        self.journaled_on_drain = 0

    def start(self) -> None:
        """Start the worker pool (journal-resumed jobs begin immediately)."""
        self.workers.start()
        if self.memwatch is not None:
            self.memwatch.start()

    # ------------------------------------------------------------------
    # Admission

    def admit(self, request: CheckRequest, client: str, subscriber_factory):
        """Admit one document: cache answers now, queue the rest.

        ``subscriber_factory(index)`` must return a cheap, thread-safe
        callback (the queue notifies under its lock). Raises
        :class:`RateLimitedError` / :class:`QueueFullError` (both 429),
        :class:`ProtocolError` (400), or :class:`ReproError` (422/503)
        strictly before anything is enqueued: group admission is atomic
        under the queue lock, so a document is either fully queued (as
        one joint-execution group) or not at all.
        """
        if self.draining:
            raise ReproError(
                "service is draining; retry against the restarted instance"
            )
        allowed, retry_after = self.limiter.allow(client)
        if not allowed:
            self.service.note_rejected()
            raise RateLimitedError(client, retry_after)
        started = time.perf_counter()
        prepared = self.service.prepare(request)
        self._check_admission_cost(prepared, client)
        use_cache = self.service.incremental_enabled and request.incremental
        claims = prepared.claims

        # Journalable rebuild material: the data spec plus the article
        # *text* (even for path requests — the file may be gone after a
        # restart) and a title that reproduces load_document() exactly.
        if request.article is not None:
            article, title = request.article, request.title
        else:
            path = Path(request.article_path)
            article = path.read_text(encoding="utf-8-sig")
            title = path.stem
        if request.database is not None:
            registered = self.service.source_for(prepared.scope_fp)
            if registered is None:
                raise ReproError(
                    "cannot queue against this fingerprint reference: its "
                    "data spec is no longer registered; resubmit 'csv' "
                    "paths or inline 'tables'"
                )
            source = dict(registered)
        else:
            source = data_spec(request)
        source["article"] = article
        source["title"] = title

        admission = Admission(
            prepared=prepared,
            statuses=[None] * len(claims),
            started=started,
        )
        fresh: list[tuple[int, str]] = []
        for index, claim in enumerate(claims):
            if not use_cache:  # don't hash contexts for an unused key
                fresh.append((index, ""))
                continue
            fp = claim_fingerprint(claim)
            payload = self.service.cache.get((prepared.scope_fp, fp))
            if payload is not None:
                admission.statuses[index] = payload["status"]
                admission.n_cached += 1
                admission.events.append(claim_event(index, payload, cached=True))
            else:
                fresh.append((index, fp))
        group = uuid.uuid4().hex
        entries = []
        for index, fp in fresh:
            # With the incremental tier on, the idempotency key is the
            # same identity the tier memoizes under, so identical claims
            # dedupe across concurrent requests; with it off, the key is
            # request-scoped — every submission recomputes.
            entries.append({
                "key": f"{prepared.scope_fp}:{fp}" if fp else f"{group}:{index}",
                "group": group,
                "index": index,
                "scope": prepared.scope_fp,
                "source": source,
                "claim_fp": fp,
                "subscriber": subscriber_factory(index),
            })
        try:
            # Atomic: either the whole document's fresh claims are
            # admitted as one group (a worker can never lease a partial
            # group, which would split the joint batch and change the
            # pooled priors) or nothing is enqueued and the 429 carries
            # the retry hint.
            submitted = self.queue.submit_group(entries) if entries else []
        except QueueFullError:
            self.service.note_rejected()
            raise
        for entry, (job, done) in zip(entries, submitted):
            index = entry["index"]
            if done is not None:
                admission.statuses[index] = done["status"]
                admission.n_deduped += 1
                admission.events.append(claim_event(index, done, cached=True))
            else:
                admission.pending.append((job.id, index))
        admission.events.insert(
            0,
            {
                "event": "start",
                "document": prepared.document.title,
                "claims": len(claims),
                "database_fingerprint": prepared.database_fp,
                "checker_fingerprint": prepared.scope_fp,
                "incremental": use_cache,
                "queued": len(admission.pending),
                "deduped": admission.n_deduped,
            },
        )
        return admission

    def _check_admission_cost(self, prepared, client: str) -> None:
        """Reject oversized work before it reaches the queue.

        Cost = tables x rows x claims: deliberately coarse — it needs no
        cube estimation, only already-loaded metadata — and a true
        multiplier of the work one request can demand (each claim fans
        out candidate queries over the joined tables). The
        ``admission.cost`` fire point lets the chaos harness drive the
        rejection path without constructing an oversized request.
        """
        checker = prepared.entry.checker
        database = checker.database if checker is not None else None
        n_tables = len(database.tables) if database is not None else 1
        n_rows = database.total_rows() if database is not None else 0
        cost = max(1, n_tables) * max(1, n_rows) * max(1, len(prepared.claims))
        try:
            faults.fire("admission.cost", client, cost)
        except InjectedFault as fault:
            # An armed fault at the cost check simulates an oversized
            # request: same structured 413 path, zero queue impact.
            self.rejected_cost += 1
            self.service.note_rejected()
            raise AdmissionRejectedError(cost, 0) from fault
        if self.max_request_cost is not None and cost > self.max_request_cost:
            self.rejected_cost += 1
            self.service.note_rejected()
            raise AdmissionRejectedError(cost, self.max_request_cost)

    # ------------------------------------------------------------------
    # Introspection / shutdown

    def health(self) -> dict:
        payload = self.service.health()
        queue = self.queue.stats()
        payload["queue"] = queue
        payload["workers"] = self.workers.stats()
        payload["breaker"] = self.breaker.stats()
        payload["rate_limiter"] = self.limiter.stats()
        payload["memory"] = self._memory_stats()
        payload["admission"] = {
            "max_request_cost": self.max_request_cost,
            "rejected_cost": self.rejected_cost,
        }
        payload["draining"] = self.draining
        if self.draining:
            payload["status"] = "draining"
        elif (
            queue["depth"] >= queue["capacity"]
            or payload["breaker"]["state"] == "open"
        ):
            payload["status"] = "degraded"
        else:
            payload["status"] = "ok"
        return payload

    def stats(self) -> dict:
        payload = self.service.stats()
        payload["queue"] = self.queue.stats()
        payload["workers"] = self.workers.stats()
        payload["breaker"] = self.breaker.stats()
        payload["rate_limiter"] = self.limiter.stats()
        payload["memory"] = self._memory_stats()
        payload["admission"] = {
            "max_request_cost": self.max_request_cost,
            "rejected_cost": self.rejected_cost,
        }
        payload["draining"] = self.draining
        return payload

    def _memory_stats(self) -> dict:
        if self.memwatch is not None:
            return self.memwatch.stats()
        rss = read_rss_mb()
        return {
            "rss_mb": round(rss, 1) if rss is not None else None,
            "max_rss_mb": None,
            "shedding": False,
        }

    def deadletter(self) -> list[dict]:
        return self.queue.deadletter()

    def drain(self, timeout: float = 30.0) -> int:
        """Graceful shutdown: finish leased jobs, journal the rest.

        Idempotent; returns the number of jobs left journaled for the
        next process.
        """
        with self._drain_lock:
            if self._drained:
                return self.journaled_on_drain
            self.draining = True
            if self.memwatch is not None:
                self.memwatch.stop()
            journaled = self.queue.drain(timeout)
            self.workers.stop()
            self.queue.close()
            self.journaled_on_drain = journaled
            self._drained = True
            return journaled


class AsyncVerificationServer:
    """``asyncio.start_server``-based HTTP front end over a QueueService.

    HTTP/1.0 with ``Connection: close`` framing: the /check stream has no
    known length up front, and end-of-body == connection close keeps
    every stdlib client able to read NDJSON events as they arrive.
    """

    def __init__(
        self,
        service: QueueService,
        host: str = "127.0.0.1",
        port: int = 8765,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.verbose = verbose
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop_event: asyncio.Event | None = None
        self._started_event = threading.Event()
        self._start_error: BaseException | None = None
        self._tasks: set[asyncio.Task] = set()
        self._shutdown_done = False
        self._bound: tuple[str, int] | None = None

    @property
    def url(self) -> str:
        assert self._bound is not None, "server not started"
        return f"http://{self._bound[0]}:{self._bound[1]}"

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        self.service.start()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        name = sock.getsockname()
        self._bound = (name[0], name[1])

    async def _run_until_stopped(self, on_ready=None) -> None:
        await self.start()
        if on_ready is not None:
            on_ready(self)
        self._started_event.set()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        """Stop accepting, drain the queue tier, wait for open streams."""
        if self._shutdown_done:
            return
        self._shutdown_done = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        # Drain in an executor thread: leased jobs finish and ack (their
        # streams below complete), pending jobs get "drained" events.
        await loop.run_in_executor(None, self.service.drain)
        current = asyncio.current_task()
        tasks = [t for t in self._tasks if t is not current]
        if tasks:
            await asyncio.wait(tasks, timeout=30.0)

    def run_blocking(self, on_ready=None) -> None:
        """Serve until interrupted (the CLI entry point)."""
        try:
            asyncio.run(self._run_until_stopped(on_ready))
        except KeyboardInterrupt:
            pass
        finally:
            # Idempotent: covers the interrupt path where the loop died
            # before _shutdown ran. Streams are gone with the loop, but
            # leased jobs still finish and pending jobs stay journaled.
            self.service.drain()

    def start_in_thread(self, timeout: float = 30.0) -> str:
        """Run the server on a background thread; returns the bound URL."""
        def _run() -> None:
            try:
                asyncio.run(self._run_until_stopped())
            except BaseException as error:  # surfaced to the caller
                self._start_error = error
                self._started_event.set()
        self._thread = threading.Thread(
            target=_run, name="aio-server", daemon=True
        )
        self._thread.start()
        if not self._started_event.wait(timeout):
            raise ReproError("async server did not start in time")
        if self._start_error is not None:
            raise ReproError(f"async server failed to start: {self._start_error}")
        return self.url

    def shutdown_gracefully(self, timeout: float = 60.0) -> None:
        """Drain and stop a server started with :meth:`start_in_thread`."""
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
            try:
                future.result(timeout)
            except Exception:
                pass
            stop_event = self._stop_event
            if stop_event is not None:
                loop.call_soon_threadsafe(stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)
        self.service.drain()

    # ------------------------------------------------------------------
    # HTTP framing

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            await self._handle_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            self.service.service.note_dropped_stream()
        except Exception as error:
            # Never let a handler die silently, whatever the checker
            # throws; by this point the head may be committed, so report
            # in-band and close.
            self.service.service.note_error()
            try:
                writer.write(encode_event(error_event(str(error))))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        finally:
            if task is not None:
                self._tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        line = await asyncio.wait_for(reader.readline(), _HEADER_TIMEOUT)
        if not line:
            return
        parts = line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            await self._send_json(
                writer, 400, {"error": "malformed request line"}
            )
            return
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            raw = await asyncio.wait_for(reader.readline(), _HEADER_TIMEOUT)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.decode("latin-1", "replace").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        if self.verbose:
            import sys

            sys.stderr.write(f"{method} {path}\n")
        if method == "GET":
            if path == "/health":
                await self._send_json(writer, 200, self.service.health())
            elif path == "/stats":
                await self._send_json(writer, 200, self.service.stats())
            elif path == "/deadletter":
                dead = self.service.deadletter()
                await self._send_json(
                    writer, 200, {"count": len(dead), "deadletter": dead}
                )
            else:
                await self._send_json(
                    writer, 404, {"error": f"unknown path {path!r}"}
                )
        elif method == "POST":
            if path != "/check":
                await self._send_json(
                    writer, 404, {"error": f"unknown path {path!r}"}
                )
                return
            await self._handle_check(reader, writer, headers)
        else:
            await self._send_json(
                writer, 405, {"error": f"method {method} not allowed"}
            )

    async def _handle_check(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
    ) -> None:
        service = self.service
        base = service.service
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            base.note_error()
            await self._send_json(
                writer, 411, {"error": "Content-Length required"}
            )
            return
        if length > MAX_BODY_BYTES:
            base.note_error()
            await self._send_json(
                writer,
                413,
                {
                    "error": f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                },
            )
            return
        body = await reader.readexactly(length)
        try:
            payload = json.loads(body)
        except ValueError as error:
            # ValueError covers JSONDecodeError AND UnicodeDecodeError:
            # raw binary garbage must get the same structured 400 as
            # syntactically broken JSON, not an unhandled traceback.
            base.note_error()
            await self._send_json(
                writer,
                400,
                {
                    "error": f"invalid JSON body: {error}",
                    "reason": "invalid_json",
                },
            )
            return

        peer = writer.get_extra_info("peername")
        client = headers.get("x-client-id") or (
            peer[0] if isinstance(peer, (tuple, list)) else str(peer)
        )
        loop = asyncio.get_running_loop()
        events_q: asyncio.Queue = asyncio.Queue()

        def subscriber_factory(index: int):
            def _subscriber(kind, job, result, _index=index):
                try:
                    loop.call_soon_threadsafe(
                        events_q.put_nowait, (kind, _index, result)
                    )
                except RuntimeError:
                    pass  # loop gone: the connection died with it

            return _subscriber

        try:
            request = CheckRequest.from_json(payload)
            admission = await loop.run_in_executor(
                None, service.admit, request, client, subscriber_factory
            )
        except (RateLimitedError, QueueFullError) as error:
            retry_after = max(1, math.ceil(error.retry_after_seconds))
            reason = (
                "rate_limited"
                if isinstance(error, RateLimitedError)
                else "queue_full"
            )
            await self._send_json(
                writer,
                429,
                {
                    "error": str(error),
                    "reason": reason,
                    "retry_after": retry_after,
                },
                extra_headers=[f"Retry-After: {retry_after}"],
            )
            return
        except AdmissionRejectedError as error:
            await self._send_json(
                writer,
                413,
                {
                    "error": str(error),
                    "reason": "cost_exceeded",
                    "cost": error.cost,
                    "max_cost": error.max_cost,
                },
            )
            return
        except ProtocolError as error:
            base.note_error()
            await self._send_json(
                writer, 400, {"error": str(error), "reason": error.reason}
            )
            return
        except CsvFormatError as error:
            # Hostile or malformed client data: structured 400, not 422.
            # An unreadable server-side file is the environment's fault,
            # not the request's: that one stays a 422.
            base.note_error()
            status = 422 if error.reason == "unreadable_file" else 400
            await self._send_json(
                writer, status, {"error": str(error), "reason": error.reason}
            )
            return
        except (ReproError, OSError) as error:
            base.note_error()
            status = 503 if service.draining else 422
            await self._send_json(writer, status, {"error": str(error)})
            return

        writer.write(
            b"HTTP/1.0 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        for event in admission.events:
            writer.write(encode_event(event))
        await writer.drain()

        statuses = admission.statuses
        evaluated = drained = 0
        remaining = len(admission.pending)
        while remaining > 0:
            try:
                kind, index, result = await asyncio.wait_for(
                    events_q.get(), timeout=service.stream_timeout
                )
            except asyncio.TimeoutError:
                base.note_error()
                writer.write(
                    encode_event(
                        error_event(
                            f"timed out after {service.stream_timeout:.0f}s "
                            f"waiting for {remaining} queued claim(s)"
                        )
                    )
                )
                break
            if kind == "ack":
                statuses[index] = result["status"]
                evaluated += 1
                writer.write(encode_event(claim_event(index, result, cached=False)))
            elif kind == "dead":
                statuses[index] = "error"
                base.note_claim_error()
                writer.write(
                    encode_event(
                        {"event": "error", "index": index, "error": str(result)}
                    )
                )
            elif kind == "drained":
                statuses[index] = "drained"
                drained += 1
                writer.write(
                    encode_event(
                        {
                            "event": "error",
                            "index": index,
                            "error": "server draining: job journaled and "
                            "will resume on restart",
                        }
                    )
                )
            remaining -= 1
            await writer.drain()

        base.note_served(len(statuses), admission.n_cached)
        errors = sum(1 for status in statuses if status == "error")
        flagged = sum(
            1
            for status in statuses
            if status not in (None, "verified", "error", "drained")
        )
        prepared = admission.prepared
        queue_stats = service.queue.stats()
        writer.write(
            encode_event(
                {
                    "event": "summary",
                    "claims": len(statuses),
                    "flagged": flagged,
                    "errors": errors,
                    "cached_claims": admission.n_cached,
                    "deduped_claims": admission.n_deduped,
                    "evaluated_claims": evaluated,
                    "drained_claims": drained,
                    "seconds": round(
                        time.perf_counter() - admission.started, 4
                    ),
                    "database_fingerprint": prepared.database_fp,
                    "checker_fingerprint": prepared.scope_fp,
                    "queue": {
                        "depth": queue_stats["depth"],
                        "deadletter": queue_stats["deadletter"],
                    },
                }
            )
        )
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: list[str] | None = None,
    ) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        head = [
            f"HTTP/1.0 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        head.extend(extra_headers or ())
        head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()


def create_async_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    config: AggCheckerConfig | None = None,
    queue_dir: str | Path | None = None,
    queue_capacity: int = 1024,
    workers: int = 2,
    visibility_timeout: float = 30.0,
    retry: RetryPolicy | None = None,
    rate_limit: float = 0.0,
    rate_burst: float | None = None,
    breaker_threshold: int = 5,
    breaker_cooldown: float = 30.0,
    incremental: bool = True,
    incremental_capacity: int = 16384,
    max_databases: int = 64,
    request_timeout: float | None = None,
    stream_timeout: float | None = None,
    fsync: bool = False,
    max_request_cost: int | None = None,
    max_rss_mb: float | None = None,
    rss_interval: float = 1.0,
    verbose: bool = False,
) -> AsyncVerificationServer:
    """Build an :class:`AsyncVerificationServer` (port 0 picks a free port)."""
    service = QueueService(
        config,
        queue_dir=queue_dir,
        queue_capacity=queue_capacity,
        workers=workers,
        visibility_timeout=visibility_timeout,
        retry=retry,
        rate_limit=rate_limit,
        rate_burst=rate_burst,
        breaker_threshold=breaker_threshold,
        breaker_cooldown=breaker_cooldown,
        incremental=incremental,
        incremental_capacity=incremental_capacity,
        max_databases=max_databases,
        request_timeout=request_timeout,
        stream_timeout=stream_timeout,
        fsync=fsync,
        max_request_cost=max_request_cost,
        max_rss_mb=max_rss_mb,
        rss_interval=rss_interval,
    )
    return AsyncVerificationServer(service, host=host, port=port, verbose=verbose)
