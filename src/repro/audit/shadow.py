"""Online shadow verification: sampled acked verdicts re-checked against
the oracle.

The engine's bit-identity contract — the dictionary-encoded columnar
backend and every cache tier produce *exactly* the verdicts of the
row-wise NAIVE oracle — is asserted by the test suite but, until now,
only trusted in production. The :class:`ShadowAuditor` demonstrates it
continuously: a configurable fraction of acked fresh groups is replayed
on a background thread against an oracle checker (``NAIVE`` mode, ``ROW``
backend, no disk cache, no deadline or space budgets) built from the same
journaled source the worker executed, and the payloads are compared
field-for-field.

Sampling is per *group*, not per claim: verdicts are jointly inferred
(pooled predicate fragments, learned document priors), so the only sound
re-execution is the exact batch that produced them — which is also why
cached (memoized) serves are not re-executed here: they were computed in
some earlier batch, and re-checking them in another batch can diverge
legitimately. The memo tier is instead guarded by per-entry CRCs
(:mod:`repro.service.incremental`). Degraded payloads are excluded for
the same reason: they reflect a time/space budget, not the claim.

A divergence is handled, not just counted: the poisoned memo entry is
replaced with the oracle's payload, the database's disk-cache entries are
invalidated, the production checker's in-memory cube cells are dropped,
and the database is demoted one rung on the :class:`~repro.audit.trust.TrustLadder`
— so the *next* group for that database runs with less cached state
while the divergence counter and ``GET /audit`` tell the operator why.
Each audited group additionally deep-scrubs a small sample of the
database's disk cube-cache entries (bit-exact recompute, quarantine on
mismatch).
"""

from __future__ import annotations

import random
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.audit.scrub import recompute_matches
from repro.audit.trust import TrustLadder, TrustLevel
from repro.db.diskcache import DiskCubeCache, fingerprint_of
from repro.db.engine import EngineStats, ExecutionMode
from repro.errors import ReproError
from repro.text.claims import detect_claims

# NOTE: repro.service.protocol is imported lazily inside methods — the
# service package's __init__ imports the aio front end, which imports
# this module, so a top-level import here would be circular.

if TYPE_CHECKING:
    from repro.core.checker import AggChecker, CheckReport
    from repro.service.warm import VerificationService
    from repro.text.claims import Claim
    from repro.text.document import Document

#: Fraction of acked fresh groups shadow-verified by default. At open-loop
#: arrival rates the audit runs on one background thread, so the default
#: costs well under the 10% throughput budget (see BENCH_service_load).
DEFAULT_AUDIT_RATE = 0.05

#: Oracle checkers kept warm (per scope fingerprint).
_ORACLE_POOL_SIZE = 4

#: Disk cube-cache entries deep-scrubbed per audited group.
_SCRUB_CELLS_PER_AUDIT = 2


@dataclass
class _AuditTask:
    """One sampled group: what was served, and how to rebuild the work."""

    scope_fp: str
    database_fp: str
    source: dict
    #: ``(claim index, claim fingerprint, served payload)`` per fresh job.
    items: list


class _OracleEntry:
    """One pooled oracle checker (serialized by its own lock)."""

    def __init__(self, checker: "AggChecker", database, document_cache=None):
        self.lock = threading.Lock()
        self.checker = checker
        self.database = database


class ShadowAuditor:
    """Samples acked groups and re-verifies them against the oracle."""

    def __init__(
        self,
        service: "VerificationService",
        rate: float = DEFAULT_AUDIT_RATE,
        ladder: TrustLadder | None = None,
        max_backlog: int = 64,
        scrub_cells: int = _SCRUB_CELLS_PER_AUDIT,
        rng: random.Random | None = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"audit rate must be in [0, 1], got {rate}")
        self.service = service
        self.rate = rate
        self.ladder = ladder if ladder is not None else TrustLadder()
        self.max_backlog = max_backlog
        self.scrub_cells = scrub_cells
        #: audit_* counters, merged into the service's engine stats.
        self.stats = EngineStats()
        self.sampled_groups = 0
        self.dropped_tasks = 0
        self.audit_errors = 0
        self.skipped_degraded = 0
        self.skipped_stale = 0
        #: Groups the executor routed through the oracle (ORACLE_ONLY) or
        #: ran with the disk tier bypassed (DISK_BYPASS).
        self.oracle_groups = 0
        self.disk_bypassed_groups = 0
        self.recent_divergences: "deque[dict]" = deque(maxlen=32)
        self._rng = rng if rng is not None else random.Random()
        cache_dir = service.config.engine.cache_dir
        self._disk = DiskCubeCache(cache_dir) if cache_dir else None
        self._oracles: "OrderedDict[str, _OracleEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._tasks: "deque[_AuditTask]" = deque()
        self._wakeup = threading.Condition(self._lock)
        self._pending = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0

    def start(self) -> None:
        if not self.enabled or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="shadow-auditor", daemon=True
        )
        self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the worker thread (pending tasks are abandoned)."""
        self._stop.set()
        with self._wakeup:
            self._wakeup.notify_all()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._thread = None

    def flush(self, timeout: float = 30.0) -> bool:
        """Block until the backlog is fully processed (tests)."""
        with self._wakeup:
            return self._wakeup.wait_for(
                lambda: self._pending == 0, timeout=timeout
            )

    # -- producer side (called from worker threads) --------------------

    def observe_group(
        self,
        scope_fp: str,
        database_fp: str,
        source: dict,
        items: list,
    ) -> None:
        """Maybe sample one acked fresh group for shadow verification.

        ``items`` is ``[(claim index, claim fingerprint, served payload)]``
        for the group's jobs, in batch order. Cheap on the worker path:
        one RNG draw plus an append.
        """
        if not self.enabled or self._stop.is_set():
            return
        auditable = [item for item in items if not item[2].get("degraded")]
        if len(auditable) < len(items):
            self.skipped_degraded += len(items) - len(auditable)
        if not auditable:
            return
        if self._rng.random() >= self.rate:
            return
        task = _AuditTask(scope_fp, database_fp, dict(source), auditable)
        with self._wakeup:
            self.sampled_groups += 1
            if len(self._tasks) >= self.max_backlog:
                self.dropped_tasks += 1
                return
            self._tasks.append(task)
            self._pending += 1
            self._wakeup.notify_all()

    # -- consumer side (the auditor thread) ----------------------------

    def _run(self) -> None:
        while True:
            with self._wakeup:
                while not self._tasks and not self._stop.is_set():
                    self._wakeup.wait(timeout=0.2)
                if self._stop.is_set():
                    return
                task = self._tasks.popleft()
            try:
                self._process(task)
            except Exception:
                # The audit must never take the service down — a failed
                # audit is counted and the sample is simply lost (e.g.
                # journaled CSV paths already deleted by a test teardown).
                self.audit_errors += 1
            finally:
                with self._wakeup:
                    self._pending -= 1
                    self._wakeup.notify_all()

    def _process(self, task: _AuditTask) -> None:
        from repro.service.protocol import verdict_payload

        entry = self._oracle_for(task.scope_fp, task.source)
        if fingerprint_of(entry.database) != task.database_fp:
            # The source files changed since the group executed: the
            # rebuilt database is different work, not evidence.
            self.skipped_stale += 1
            return
        document, claims = self._rebuild(task.source)
        if any(index >= len(claims) for index, _, _ in task.items):
            self.skipped_stale += 1
            return
        with entry.lock:
            report = entry.checker.check_claims(
                document, [claims[index] for index, _, _ in task.items]
            )
        divergent = []
        for (index, claim_fp, served), verdict in zip(
            task.items, report.verdicts
        ):
            expected = verdict_payload(verdict)
            self.stats.audit_checks += 1
            if expected == served:
                continue
            self.stats.audit_divergences += 1
            divergent.append((index, claim_fp, served, expected))
        if divergent:
            self._handle_divergences(task, divergent)
        else:
            self.ladder.record_clean(task.database_fp, len(task.items))
        self._scrub_sample(task, entry)

    def _handle_divergences(self, task: _AuditTask, divergent: list) -> None:
        for index, claim_fp, served, expected in divergent:
            if claim_fp:
                # Repair the memo: the poisoned payload is replaced by
                # the oracle's, so the next cached serve is correct.
                self.service.cache.put((task.scope_fp, claim_fp), expected)
                self.stats.audit_repairs += 1
            self.recent_divergences.append(
                {
                    "database": task.database_fp,
                    "scope": task.scope_fp,
                    "index": index,
                    "served_status": served.get("status"),
                    "expected_status": expected.get("status"),
                    "served_probability": served.get("probability_correct"),
                    "expected_probability": expected.get(
                        "probability_correct"
                    ),
                }
            )
        self.ladder.record_divergence(task.database_fp)
        self._invalidate_caches(task)

    def _invalidate_caches(self, task: _AuditTask) -> None:
        """Drop every cached artifact the divergent database owns."""
        if self._disk is not None:
            self._disk.invalidate(task.database_fp)
        pool_entry = self.service.pool.peek(("content", task.scope_fp))
        if pool_entry is not None and pool_entry.checker is not None:
            with pool_entry.lock:
                pool_entry.checker.engine.cache.clear()

    def _scrub_sample(self, task: _AuditTask, entry: _OracleEntry) -> None:
        """Deep-scrub a few of the database's disk cube-cache entries."""
        if self._disk is None or self.scrub_cells <= 0:
            return
        paths = self._disk.paths_for(task.database_fp)
        if len(paths) > self.scrub_cells:
            paths = self._rng.sample(paths, self.scrub_cells)
        graphs: dict = {}
        for path in paths:
            payload = self._disk.read_payload(path)
            self.stats.audit_cell_scrubs += 1
            if payload is None:
                # Structural corruption: read_payload already counted and
                # quarantined it; it could never have been *served*, so
                # the trust ladder stays put.
                self.stats.audit_cell_mismatches += 1
                continue
            meta = payload.get("meta")
            if (
                not isinstance(meta, dict)
                or meta.get("fingerprint") != task.database_fp
            ):
                continue
            if recompute_matches(entry.database, payload, graphs):
                continue
            # Bit-identity failure: the stored cells lie about the data.
            self.stats.audit_cell_mismatches += 1
            self._disk.quarantine(path)
            self.ladder.record_divergence(task.database_fp)
            self._invalidate_caches(task)
            return

    # -- the oracle ----------------------------------------------------

    def oracle_config(self):
        """The production config stripped to ground-truth execution."""
        return replace(
            self.service.config,
            engine=replace(
                self.service.config.engine,
                mode=ExecutionMode.NAIVE,
                backend="row",
                cache_dir=None,
                disk_cache_min_rows=None,
            ),
            claim_deadline=None,
            max_rows_materialized=None,
            max_cube_cells=None,
            max_candidates=None,
        )

    def _oracle_for(self, scope_fp: str, source: dict) -> _OracleEntry:
        with self._lock:
            entry = self._oracles.get(scope_fp)
            if entry is not None:
                self._oracles.move_to_end(scope_fp)
                return entry
        from repro.core.checker import AggChecker
        from repro.service.protocol import spec_request

        request = spec_request(
            source,
            article=source.get("article") or "",
            title=source.get("title") or "document",
        )
        database = request.load_database()
        dictionary = request.load_dictionary()
        checker = AggChecker(database, self.oracle_config(), dictionary)
        entry = _OracleEntry(checker, database)
        with self._lock:
            existing = self._oracles.get(scope_fp)
            if existing is not None:
                return existing
            self._oracles[scope_fp] = entry
            while len(self._oracles) > _ORACLE_POOL_SIZE:
                self._oracles.popitem(last=False)
        return entry

    def _rebuild(self, source: dict) -> "tuple[Document, list[Claim]]":
        from repro.service.protocol import spec_request

        request = spec_request(
            source,
            article=source.get("article") or "",
            title=source.get("title") or "document",
        )
        document = request.load_document()
        claims = detect_claims(
            document, self.service.config.claim_detection
        )
        return document, claims

    def oracle_check(
        self,
        scope_fp: str,
        database_fp: str,
        source: dict,
        document: "Document",
        claims: "list[Claim]",
        deadline=None,
    ) -> "CheckReport":
        """Execute a group on the oracle path (the ORACLE_ONLY rung).

        Called synchronously by the group executor for databases the
        ladder fully distrusts: correctness over cost, no cache tier
        involved at all.
        """
        entry = self._oracle_for(scope_fp, source)
        if fingerprint_of(entry.database) != database_fp:
            raise ReproError(
                "oracle-only execution refused: source data changed since "
                "admission (database fingerprint mismatch)"
            )
        with entry.lock:
            report = entry.checker.check_claims(
                document, claims, deadline=deadline
            )
        self.oracle_groups += 1
        return report

    # -- reporting -----------------------------------------------------

    def health(self) -> dict:
        """The compact block embedded in ``GET /health``."""
        return {
            "enabled": self.enabled,
            "rate": self.rate,
            "checks": self.stats.audit_checks,
            "divergences": self.stats.audit_divergences,
            "degraded": self.ladder.degraded(),
        }

    def snapshot(self) -> dict:
        """The full ``GET /audit`` payload."""
        with self._wakeup:
            backlog = len(self._tasks)
        return {
            "enabled": self.enabled,
            "rate": self.rate,
            "sampled_groups": self.sampled_groups,
            "backlog": backlog,
            "dropped_tasks": self.dropped_tasks,
            "audit_errors": self.audit_errors,
            "skipped_degraded": self.skipped_degraded,
            "skipped_stale": self.skipped_stale,
            "oracle_groups": self.oracle_groups,
            "disk_bypassed_groups": self.disk_bypassed_groups,
            "checks": self.stats.audit_checks,
            "divergences": self.stats.audit_divergences,
            "repairs": self.stats.audit_repairs,
            "cell_scrubs": self.stats.audit_cell_scrubs,
            "cell_mismatches": self.stats.audit_cell_mismatches,
            "ladder": self.ladder.stats(),
            "recent_divergences": list(self.recent_divergences),
        }
