"""Queue worker pool: leases claim-job groups and verifies them.

Workers are threads, not processes: an :class:`~repro.core.checker.AggChecker`
per database is the expensive shared asset, and the thread pool reuses the
service's warm :class:`~repro.harness.runner.CheckerPool` directly (the
per-entry lock serializes same-database execution). Each worker loops:
lease the oldest ready *group* (all fresh claims of one document —
verified as one joint batch so inference stays bit-identical to the
one-shot CLI), rebuild document and claims from the journaled article
text, run them on the checker admission registered under the group's
scope fingerprint, ack each job with its verdict payload.
A clean failure nacks the whole group (retry with jittered backoff, then
dead-letter); a worker that dies mid-lease acks nothing — the reaper
expires its leases back to pending and respawns the thread, which is the
at-least-once story the chaos harness exercises.

The execution backend is wrapped in a :class:`CircuitBreaker`: a run of
consecutive failures trips it open, and while open every leased group is
executed under an already-expired deadline so the checker walks its PR-6
degradation ladder (reduced scope -> no execution -> unverifiable) and
the queue keeps draining with explicit degraded verdicts instead of
collapsing into retry loops. A half-open probe closes it again on the
first success.

Fault points (see :mod:`repro.faults`): ``queue.worker`` fires at the top
of each worker loop (a ``raise`` kills the worker before it leases),
``queue.lease`` fires after leasing but *outside* the nack handler (a
``raise`` simulates a worker dying mid-job: no nack, lease-expiry
recovery), and ``queue.exec`` fires inside the handler (a ``raise``
exercises the clean nack -> retry -> dead-letter path).
"""

from __future__ import annotations

import threading
import time

from repro.deadline import Deadline
from repro.faults import fire
from repro.service.protocol import parse_article, verdict_payload
from repro.service.queue import DurableJobQueue, Job
from repro.service.warm import VerificationService
from repro.text.claims import detect_claims

#: Deadline handed to the checker while the breaker is open: already
#: expired at the first stage check, so every claim degrades to an
#: explicit unverifiable verdict in microseconds instead of occupying
#: the backend that is currently failing.
_SHED_BUDGET_SECONDS = 1e-9


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open recovery probe.

    Besides the failure-driven open state, the breaker can be *forced*
    open by an external monitor (the memory-pressure watchdog): while
    forced, every caller sheds regardless of failure counters or
    cooldown, and only :meth:`release_forced` closes it again — recovery
    is the monitor observing pressure subside, not the passage of time.
    """

    def __init__(
        self, failure_threshold: int = 5, cooldown_seconds: float = 30.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self._forced_reason: str | None = None
        self.trips = 0
        self.forced_trips = 0
        self.shed_groups = 0

    def force_open(self, reason: str) -> None:
        """Hold the breaker open until :meth:`release_forced` (idempotent)."""
        with self._lock:
            if self._forced_reason is None:
                self.forced_trips += 1
            self._forced_reason = reason

    def release_forced(self) -> None:
        """Clear a forced-open hold (failure-driven state is untouched)."""
        with self._lock:
            self._forced_reason = None

    def allow(self) -> bool:
        """True when the backend should be tried for real.

        While open, returns False (the caller degrades) until the
        cooldown elapses; then exactly one caller gets a half-open probe.
        """
        with self._lock:
            if self._forced_reason is not None:
                self.shed_groups += 1
                return False
            if self._opened_at is None:
                return True
            if time.monotonic() - self._opened_at < self.cooldown_seconds:
                self.shed_groups += 1
                return False
            if self._probing:
                self.shed_groups += 1
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._probing:
                # The half-open probe failed: reopen for a fresh cooldown.
                self._opened_at = time.monotonic()
                self._probing = False
                self.trips += 1
            elif (
                self._opened_at is None
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = time.monotonic()
                self.trips += 1

    @property
    def state(self) -> str:
        with self._lock:
            if self._forced_reason is not None:
                return "open"
            if self._opened_at is None:
                return "closed"
            if time.monotonic() - self._opened_at >= self.cooldown_seconds:
                return "half-open"
            return "open"

    def stats(self) -> dict:
        with self._lock:
            opened = self._opened_at
            forced = self._forced_reason
        return {
            "state": self.state,
            "failure_threshold": self.failure_threshold,
            "cooldown_seconds": self.cooldown_seconds,
            "trips": self.trips,
            "forced_open": forced,
            "forced_trips": self.forced_trips,
            "shed_groups": self.shed_groups,
            "open_for_seconds": (
                round(time.monotonic() - opened, 3) if opened is not None
                else None
            ),
        }


class GroupExecutor:
    """Rebuilds one job group into a joint ``check_claims`` call."""

    def __init__(
        self,
        service: VerificationService,
        breaker: CircuitBreaker | None = None,
        request_timeout: float | None = None,
    ) -> None:
        self.service = service
        self.breaker = breaker
        self.request_timeout = request_timeout

    def run(self, jobs: list[Job]) -> dict[str, dict]:
        """Verify one leased group; ``job id -> verdict payload``.

        Raises on failure — the worker nacks the whole group, because a
        group shares one document and one execution. That includes a
        group whose scope is no longer registered and whose data changed
        since admission (see :meth:`VerificationService.resolve_scope`).
        """
        source = jobs[0].source
        scope_fp = jobs[0].scope
        fire("queue.exec", jobs[0].group)
        entry = self.service.resolve_scope(scope_fp, source)
        document = parse_article(
            source.get("article") or "", source.get("title") or "document"
        )
        claims = detect_claims(document, self.service.config.claim_detection)
        for job in jobs:
            if job.index >= len(claims):
                raise ValueError(
                    f"journaled job {job.id} references claim {job.index} "
                    f"but the rebuilt document has {len(claims)} claims"
                )
        shed = self.breaker is not None and not self.breaker.allow()
        if shed:
            deadline: Deadline | None = Deadline(_SHED_BUDGET_SECONDS)
        elif self.request_timeout is not None:
            deadline = Deadline(self.request_timeout)
        else:
            deadline = None
        selected = [claims[job.index] for job in jobs]
        try:
            with entry.lock:
                checker = entry.checker
                assert checker is not None
                report = checker.check_claims(
                    document, selected, deadline=deadline
                )
        except Exception:
            if self.breaker is not None and not shed:
                self.breaker.record_failure()
            raise
        if self.breaker is not None and not shed:
            self.breaker.record_success()
        payloads: dict[str, dict] = {}
        for job, verdict in zip(jobs, report.verdicts):
            payload = verdict_payload(verdict)
            payloads[job.id] = payload
            if job.claim_fp and self.service.incremental_enabled:
                self.service.cache.put((scope_fp, job.claim_fp), payload)
        return payloads


class WorkerPool:
    """N worker threads + a reaper that expires leases and respawns dead
    workers.

    Worker death is a first-class event, not a bug: the chaos harness
    kills workers mid-lease on purpose, and production workers can die of
    anything the checker throws through a fault point. The reaper notices
    (thread no longer alive), counts it, re-spawns a replacement, and the
    queue's lease expiry re-delivers whatever the dead worker held.
    """

    def __init__(
        self,
        queue: DurableJobQueue,
        executor: GroupExecutor,
        workers: int = 2,
        visibility_timeout: float = 30.0,
        reap_interval: float = 0.2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if visibility_timeout <= 0:
            raise ValueError(
                f"visibility_timeout must be > 0, got {visibility_timeout}"
            )
        self.queue = queue
        self.executor = executor
        self.n_workers = workers
        self.visibility_timeout = visibility_timeout
        self.reap_interval = reap_interval
        self._stop = threading.Event()
        self._threads: dict[int, threading.Thread] = {}
        self._reaper: threading.Thread | None = None
        self._lock = threading.Lock()
        self._spawned = 0
        self.worker_deaths = 0
        self.groups_executed = 0
        self.groups_failed = 0

    def start(self) -> None:
        with self._lock:
            for ordinal in range(self.n_workers):
                self._spawn_locked(ordinal)
            self._reaper = threading.Thread(
                target=self._reap_loop, name="queue-reaper", daemon=True
            )
            self._reaper.start()

    def _spawn_locked(self, ordinal: int) -> None:
        self._spawned += 1
        thread = threading.Thread(
            target=self._run_worker,
            args=(ordinal, self._spawned),
            name=f"queue-worker-{ordinal}",
            daemon=True,
        )
        self._threads[ordinal] = thread
        thread.start()

    def _run_worker(self, ordinal: int, incarnation: int) -> None:
        name = f"worker-{ordinal}.{incarnation}"
        try:
            self._worker_loop(name)
        except BaseException:
            # Simulated (or real) worker death: leave leased jobs unacked
            # — the reaper's lease expiry recovers them — and let the
            # reaper respawn this slot.
            with self._lock:
                self.worker_deaths += 1

    def _worker_loop(self, name: str) -> None:
        while not self._stop.is_set():
            fire("queue.worker", name)
            group = self.queue.lease_group(
                name, self.visibility_timeout, timeout=0.2
            )
            if not group:
                continue
            # Outside the try below on purpose: a fault here simulates a
            # worker dying *while holding leases* (no nack, no ack).
            fire("queue.lease", group[0].group)
            try:
                payloads = self.executor.run(group)
            except Exception as error:
                with self._lock:
                    self.groups_failed += 1
                self.queue.nack_group(
                    [job.id for job in group],
                    f"{type(error).__name__}: {error}",
                )
            else:
                with self._lock:
                    self.groups_executed += 1
                for job in group:
                    self.queue.ack(job.id, payloads[job.id])

    def _reap_loop(self) -> None:
        while not self._stop.is_set():
            self.queue.expire_leases()
            with self._lock:
                if not self._stop.is_set():
                    for ordinal, thread in list(self._threads.items()):
                        if not thread.is_alive():
                            self._spawn_locked(ordinal)
            self._stop.wait(self.reap_interval)

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1 for thread in self._threads.values() if thread.is_alive()
            )

    def stop(self, timeout: float = 10.0) -> None:
        """Stop after current leases complete (leased jobs finish and ack)."""
        self._stop.set()
        deadline = time.monotonic() + timeout
        with self._lock:
            threads = list(self._threads.values())
            reaper = self._reaper
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if reaper is not None:
            reaper.join(max(0.0, deadline - time.monotonic()))

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.n_workers,
                "alive": sum(
                    1 for t in self._threads.values() if t.is_alive()
                ),
                "visibility_timeout": self.visibility_timeout,
                "worker_deaths": self.worker_deaths,
                "groups_executed": self.groups_executed,
                "groups_failed": self.groups_failed,
            }
