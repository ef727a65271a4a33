"""Run the AggChecker over corpus cases in fully automated mode.

Checker construction is the expensive per-case fixed cost (fragment
extraction, fragment indexing, compilation of the batched-matching
artifacts, join-graph setup); :class:`CheckerPool` amortizes it by keeping
one :class:`~repro.core.checker.AggChecker` per distinct database, so
cases sharing a database also share the engine's in-memory
:class:`~repro.db.cache.ResultCache` *and* the compiled fragment index
(shared term vocabulary, CSR postings, idf/norm arrays) that
``keyword_match_batch`` scores documents against. :func:`run_corpus`
verifies a corpus in-process, one case after another, through one pool;
a case that fails raises to the caller.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.checker import AggChecker
from repro.core.config import AggCheckerConfig
from repro.corpus.generator import Corpus
from repro.corpus.spec import TestCase
from repro.db.engine import EngineStats
from repro.harness.metrics import (
    CaseResult,
    RunMetrics,
    aggregate_metrics,
    evaluate_case,
)


@dataclass
class CorpusRun:
    """All artifacts of one automated-verification pass over a corpus."""

    results: list[CaseResult]
    metrics: RunMetrics
    engine_stats: EngineStats = field(default_factory=EngineStats)

    @property
    def total_seconds(self) -> float:
        return self.metrics.total_seconds


@dataclass
class PoolEntry:
    """One pooled checker plus its per-database lock.

    ``lock`` serializes use of the (not thread-safe) checker: the service
    layer holds it for the duration of a request, so concurrent requests
    on *different* databases proceed in parallel while requests on the
    same database queue. ``keepalive`` pins whatever objects the entry's
    key was derived from (id()-keyed entries need their keyed objects
    alive for the key to stay unique).
    """

    key: object
    lock: threading.Lock
    checker: AggChecker | None = None
    keepalive: object = None


class CheckerPool:
    """One reusable :class:`AggChecker` per distinct database.

    Corpus cases are keyed by the identity of their database (and data
    dictionary) object: corpus generators that share a database across
    cases get fragment extraction, the fragment index, and the engine's
    result cache built once instead of once per case. The service layer
    keys by database *content* fingerprint instead (:meth:`entry_for` with
    an explicit key), so re-submitted requests find the warm checker and
    edited data transparently gets a fresh one.

    The pool is thread-safe: the entry map is guarded by one pool lock,
    and each entry carries its own lock under which its checker is built
    exactly once (and under which callers run requests). Checker
    construction for one database never blocks lookups or construction
    for another.
    """

    def __init__(self, config: AggCheckerConfig | None = None) -> None:
        self.config = config or AggCheckerConfig()
        self._lock = threading.Lock()
        self._entries: dict[object, PoolEntry] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry_for(
        self,
        key: object,
        factory: Callable[[], AggChecker],
        keepalive: object = None,
    ) -> PoolEntry:
        """The pool entry for ``key``, its checker built (once) if needed.

        ``factory`` runs under the entry's own lock: concurrent callers
        with the same key block until the first finishes building, callers
        with different keys are unaffected.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = PoolEntry(key, threading.Lock(), None, keepalive)
                self._entries[key] = entry
        if entry.checker is None:
            with entry.lock:
                if entry.checker is None:
                    entry.checker = factory()
        return entry

    def checker_for(self, case: TestCase) -> AggChecker:
        key = ("id", id(case.database), id(case.data_dictionary))
        entry = self.entry_for(
            key,
            lambda: AggChecker(case.database, self.config, case.data_dictionary),
            keepalive=case,
        )
        assert entry.checker is not None
        return entry.checker

    def run(self, case: TestCase) -> CaseResult:
        """Verify one case against its ground truth."""
        checker = self.checker_for(case)
        report = checker.check_claims(case.document, case.claims)
        return evaluate_case(case, report)

    def stats_snapshot(self) -> EngineStats:
        """Merged cumulative engine stats across every pooled checker.

        A live snapshot: counters of checkers currently serving requests
        are read without their entry lock, so totals can be mid-request
        (individual fields are consistent, cross-field ratios
        approximate) — exactly what a monitoring endpoint wants.
        """
        totals = EngineStats()
        with self._lock:
            entries = list(self._entries.values())
        for entry in entries:
            if entry.checker is not None:
                totals += entry.checker.engine.stats
        return totals

    def discard(self, key: object) -> None:
        """Drop one entry (no-op if absent). Callers holding the entry
        keep a working checker; the pool just stops handing it out."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


def run_case(
    case: TestCase, config: AggCheckerConfig | None = None
) -> CaseResult:
    """Verify one test case against its ground truth."""
    return CheckerPool(config).run(case)


def run_corpus(
    corpus: Corpus,
    config: AggCheckerConfig | None = None,
    limit: int | None = None,
) -> CorpusRun:
    """Verify every case of the corpus (or the first ``limit`` cases)."""
    cases = corpus.cases if limit is None else corpus.cases[:limit]
    pool = CheckerPool(config)
    results = [pool.run(case) for case in cases]
    return CorpusRun(results, aggregate_metrics(results), merge_stats(results))


def merge_stats(results: list[CaseResult]) -> EngineStats:
    """Pool per-case engine-stat deltas into corpus totals."""
    totals = EngineStats()
    for result in results:
        totals += result.report.engine_stats
    return totals
