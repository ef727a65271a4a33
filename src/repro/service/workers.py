"""Queue worker pool: leases claim-job groups and verifies them.

Workers are threads, not processes: an :class:`~repro.core.checker.AggChecker`
per database is the expensive shared asset, and the thread pool reuses the
service's warm :class:`~repro.harness.runner.CheckerPool` directly (the
per-entry lock serializes same-database execution). Each worker loops:
lease the oldest pending *group* (all fresh claims of one document —
verified as one joint batch so inference stays bit-identical to the
one-shot CLI), rebuild document and claims from the journaled article
text, run them on the checker admission registered under the group's
scope fingerprint, ack each job with its verdict payload.

A group runs once and always ends. Any exception while running *or
acking* it dead-letters each still-unacked job of the group (one
``error`` event per subscriber), and the worker goes on to the next
group: the loop catches everything, so a worker cannot exit before
:meth:`WorkerPool.stop`. Verdicts are deterministic, so there is nothing
to retry, and no worker death for a lease timeout to recover from.

While the memory watchdog reports pressure, a leased group does not
reach the checker: each claim is answered with an explicit unverifiable
verdict marked ``"degraded": "shed"``, so the queue keeps draining
instead of allocating.

Fault point (see :mod:`repro.faults`): ``queue.exec`` fires as a group
starts executing (``raise`` dead-letters the group, ``sleep`` holds it
leased).
"""

from __future__ import annotations

import threading
import time

from repro.core.verdict import unverifiable_verdict
from repro.faults import fire
from repro.service.memwatch import MemoryWatchdog
from repro.service.protocol import parse_article, verdict_payload
from repro.service.queue import DurableJobQueue, Job
from repro.service.warm import VerificationService
from repro.text.claims import detect_claims

class GroupExecutor:
    """Rebuilds one job group into a joint ``check_claims`` call."""

    def __init__(
        self,
        service: VerificationService,
        memwatch: MemoryWatchdog | None = None,
    ) -> None:
        self.service = service
        self.memwatch = memwatch

    def run(self, jobs: list[Job]) -> dict[str, dict]:
        """Verify one leased group; ``job id -> verdict payload``.

        Raises on failure — the worker dead-letters the whole group,
        because a group shares one document and one execution. That
        includes a group whose scope is no longer registered and whose
        data changed since admission (see
        :meth:`VerificationService.resolve_scope`).
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
        selected = [claims[job.index] for job in jobs]
        if self.memwatch is not None and self.memwatch.shedding:
            verdicts = [unverifiable_verdict(claim) for claim in selected]
        else:
            with entry.lock:
                checker = entry.checker
                assert checker is not None
                verdicts = checker.check_claims(document, selected).verdicts
        payloads: dict[str, dict] = {}
        for job, verdict in zip(jobs, verdicts):
            payload = verdict_payload(verdict)
            payloads[job.id] = payload
            if job.claim_fp and self.service.incremental_enabled:
                self.service.cache.put((scope_fp, job.claim_fp), payload)
        return payloads


class WorkerPool:
    """N worker threads, each running groups until :meth:`stop`."""

    def __init__(
        self,
        queue: DurableJobQueue,
        executor: GroupExecutor,
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.queue = queue
        self.executor = executor
        self.n_workers = workers
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self.groups_executed = 0
        self.groups_failed = 0

    def start(self) -> None:
        for ordinal in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"queue-worker-{ordinal}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            group = self.queue.lease_group(timeout=0.2)
            if group:
                self._run_group(group)

    def _run_group(self, group: list[Job]) -> None:
        """Run and ack one leased group; on any exception end it as dead."""
        try:
            payloads = self.executor.run(group)
            for job in group:
                self.queue.ack(job.id, payloads[job.id])
        except Exception as error:
            with self._lock:
                self.groups_failed += 1
            try:
                self.queue.fail_group(
                    [job.id for job in group],
                    f"{type(error).__name__}: {error}",
                )
            except Exception:
                pass  # every job has ended; only a journal record is lost
            return
        with self._lock:
            self.groups_executed += 1

    def stop(self, timeout: float = 10.0) -> None:
        """Stop after current leases complete (leased jobs finish and ack)."""
        self._stop.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.n_workers,
                "groups_executed": self.groups_executed,
                "groups_failed": self.groups_failed,
            }
