"""Sharded, process-parallel corpus verification with crash recovery.

Cases are grouped by database (the unit of checker reuse) and whole groups
are dealt to worker shards with a deterministic greedy balancer, so:

- fragment extraction, the fragment index, and the engine's in-memory
  result cache are built once per database inside each worker (via
  :class:`~repro.harness.runner.CheckerPool`), never split across workers;
- a parallel run visits every case with exactly the same checker state as
  the sequential runner, making results — verdicts, metrics, and engine
  counters — identical by construction, not merely statistically close.

Workers receive the case list through the process-pool initializer: under
the ``fork`` start method (Linux) the corpus is inherited copy-on-write at
no serialization cost; under ``spawn`` it is pickled once per worker.
Per-case :class:`~repro.harness.metrics.CaseResult` objects travel back
pickled and are merged in corpus order, so a parallel
:class:`~repro.harness.runner.CorpusRun` is indistinguishable from a
sequential one. Combine with ``EngineConfig.cache_dir`` to let
concurrent workers share one warm disk cube cache.

**Failure model.** A worker that dies (SIGKILL, OOM, segfault) breaks the
whole process pool: every unfinished shard fails at once. The run
survives: failed cases are retried one at a time in *isolated*
single-worker pools (a poison case can only kill its own sandbox, never a
neighbor's results) with bounded exponential backoff between attempts;
cases that keep failing are quarantined into ``CorpusRun.quarantined``
with their last error, and the run completes with verdicts bit-identical
to a sequential run for every surviving case. Engine-stat *counters* for
retried cases may differ from an uninterrupted run (a fresh sandbox
checker starts with cold caches); verdicts and quality metrics cannot.
Pass ``checkpoint=`` to persist partial results after every shard, and
``resume=True`` to continue a killed run (see
:mod:`repro.harness.checkpoint`).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import AggCheckerConfig
from repro.corpus.generator import Corpus
from repro.corpus.spec import TestCase
from repro.faults import fire
from repro.harness.checkpoint import CorpusCheckpoint, open_checkpoint
from repro.harness.metrics import CaseResult, aggregate_metrics
from repro.harness.runner import CheckerPool, CorpusRun, merge_stats

#: Worker-process state installed by the pool initializer.
_WORKER_STATE: tuple[list[TestCase], AggCheckerConfig | None] | None = None


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff plus decorrelated jitter.

    ``max_attempts`` counts the original attempt plus retries: the default
    of 3 gives a case that was innocent collateral of a neighboring crash
    two clean chances before quarantine. :meth:`backoff_seconds` is the
    deterministic exponential schedule (the reproducible floor tests pin
    down); :meth:`sleep_seconds` layers *decorrelated jitter* on top —
    uniform in ``[base, min(cap, 3 * previous sleep)]`` — so many
    consumers retrying the same shared resource (the service worker pool,
    clients honoring 429s) decorrelate instead of thundering back in
    lockstep. Callers that retry strictly one at a time (the corpus
    runner's isolation sandbox) still benefit: the jittered value is
    always within ``[backoff_seconds(1), backoff_cap]``.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff_seconds(self, retry_ordinal: int) -> float:
        """Deterministic sleep before the ``retry_ordinal``-th retry (1-based)."""
        return min(
            self.backoff_cap,
            self.backoff_base * (2 ** (retry_ordinal - 1)),
        )

    def sleep_seconds(
        self,
        retry_ordinal: int,
        previous: float | None = None,
        rng: "random.Random | None" = None,
    ) -> float:
        """Decorrelated-jitter sleep before the next retry.

        ``previous`` is the sleep used before the prior retry (None for
        the first): the next sleep is drawn uniformly from
        ``[backoff_base, min(cap, 3 * previous)]``, the AWS
        "decorrelated jitter" recipe — successive retries spread out over
        an exponentially growing window instead of synchronizing on the
        deterministic schedule. Pass a seeded ``rng`` for reproducible
        tests; the module default is shared process-wide.
        """
        generator = rng if rng is not None else random
        if previous is None or previous <= 0:
            previous = self.backoff_base
        ceiling = min(self.backoff_cap, 3.0 * previous)
        floor = min(self.backoff_base, ceiling)
        jittered = generator.uniform(floor, ceiling)
        # Never sleep less than the deterministic first-step floor, never
        # more than the cap — the bounds tests rely on.
        return min(self.backoff_cap, max(jittered, floor))


def resolve_workers(workers: int | None) -> int:
    """Map the CLI convention (0 or None = all cores) to a worker count."""
    if not workers:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def shard_cases(cases: list[TestCase], n_shards: int) -> list[list[int]]:
    """Deal case indices to shards, keeping database groups whole.

    Groups (all cases sharing one database object) are assigned
    greedily to the least-loaded shard in first-seen order — deterministic
    for a given corpus, balanced to within one group's size. Shard-local
    indices stay in corpus order so checker state evolves exactly as in a
    sequential run. Empty shards are dropped.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    groups: dict[tuple[int, int], list[int]] = {}
    for index, case in enumerate(cases):
        key = (id(case.database), id(case.data_dictionary))
        groups.setdefault(key, []).append(index)
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for indices in groups.values():
        target = min(range(n_shards), key=lambda shard: (loads[shard], shard))
        shards[target].extend(indices)
        loads[target] += len(indices)
    return [sorted(shard) for shard in shards if shard]


def _init_worker(
    cases: list[TestCase], config: AggCheckerConfig | None
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (cases, config)


def _run_shard(
    indices: list[int], shard_key: str = ""
) -> list[tuple[int, CaseResult]]:
    assert _WORKER_STATE is not None, "worker initializer did not run"
    fire("parallel.shard", shard_key)
    cases, config = _WORKER_STATE
    pool = CheckerPool(config)
    results: list[tuple[int, CaseResult]] = []
    for index in indices:
        fire("harness.case", str(index))
        results.append((index, pool.run(cases[index])))
    return results


def _run_isolated(
    cases: list[TestCase],
    config: AggCheckerConfig | None,
    index: int,
    context,
) -> CaseResult:
    """One case in a fresh single-worker sandbox pool.

    A poison case (one that kills every worker that touches it) can only
    take down its own pool here; previously-recovered results and the
    other retries are untouched, and the crash surfaces as an ordinary
    exception for the retry loop to count.
    """
    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=context,
        initializer=_init_worker,
        initargs=(cases, config),
    ) as executor:
        pairs = executor.submit(_run_shard, [index], "retry").result()
    return pairs[0][1]


def _assemble(
    done: dict[int, CaseResult], quarantined: dict[int, str]
) -> CorpusRun:
    results = [done[index] for index in sorted(done)]
    return CorpusRun(
        results,
        aggregate_metrics(results),
        merge_stats(results),
        dict(sorted(quarantined.items())),
    )


def run_corpus_parallel(
    corpus: Corpus,
    config: AggCheckerConfig | None = None,
    limit: int | None = None,
    workers: int = 0,
    retry: RetryPolicy | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> CorpusRun:
    """Verify a corpus across ``workers`` processes (0 = one per CPU).

    Falls back to the in-process sequential runner when one worker (or one
    shard) would do — the results are identical either way, so callers can
    pass ``workers`` straight from a CLI flag. Worker crashes are
    recovered per ``retry`` (see :class:`RetryPolicy` and the module
    docstring); ``checkpoint``/``resume`` persist and reload partial
    results.
    """
    from repro.harness.runner import run_corpus  # lazy: runner delegates here

    retry = retry or RetryPolicy()
    cases = corpus.cases if limit is None else corpus.cases[:limit]
    done, quarantined, store = open_checkpoint(
        cases, config, checkpoint, resume
    )
    pending = [
        index
        for index in range(len(cases))
        if index not in done and index not in quarantined
    ]
    n_workers = resolve_workers(workers)
    if n_workers <= 1 or len(pending) <= 1:
        return run_corpus(
            corpus, config, limit=limit, workers=1,
            checkpoint=checkpoint, resume=resume,
        )
    local_shards = shard_cases([cases[index] for index in pending], n_workers)
    if len(local_shards) <= 1:
        return run_corpus(
            corpus, config, limit=limit, workers=1,
            checkpoint=checkpoint, resume=resume,
        )
    # shard_cases dealt positions within `pending`; lift to corpus indices.
    shards = [[pending[local] for local in shard] for shard in local_shards]

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    failed: list[int] = []
    with ProcessPoolExecutor(
        max_workers=len(shards),
        mp_context=context,
        initializer=_init_worker,
        initargs=(cases, config),
    ) as executor:
        futures = {
            executor.submit(_run_shard, shard, str(ordinal)): shard
            for ordinal, shard in enumerate(shards)
        }
        for future in as_completed(futures):
            shard = futures[future]
            try:
                pairs = future.result()
            except (BrokenProcessPool, Exception):
                # A dead worker breaks the whole pool: every unfinished
                # shard lands here at once. Collect and recover below.
                failed.extend(shard)
                continue
            done.update(pairs)
            if store is not None:
                store.save(done, quarantined)

    _recover(
        cases, config, context, retry, sorted(set(failed) - set(done)),
        done, quarantined, store,
    )
    return _assemble(done, quarantined)


def _recover(
    cases: list[TestCase],
    config: AggCheckerConfig | None,
    context,
    retry: RetryPolicy,
    failed: list[int],
    done: dict[int, CaseResult],
    quarantined: dict[int, str],
    store: CorpusCheckpoint | None,
) -> None:
    """Retry failed cases in isolation; quarantine repeat offenders.

    The shard run was attempt 1 for every failed case; each gets up to
    ``max_attempts - 1`` isolated retries with exponential backoff.
    Correctness over throughput on this path: one sandbox pool per
    attempt is slow, but a poison document can never corrupt or abort a
    neighbor, and attempt accounting stays exact.
    """
    for index in failed:
        last_error = "failed in worker shard (no retry budget)"
        slept: float | None = None
        for retry_ordinal in range(1, retry.max_attempts):
            slept = retry.sleep_seconds(retry_ordinal, previous=slept)
            time.sleep(slept)
            try:
                done[index] = _run_isolated(cases, config, index, context)
                break
            except (BrokenProcessPool, Exception) as error:
                last_error = f"{type(error).__name__}: {error}"
        if index not in done:
            quarantined[index] = last_error
        if store is not None:
            store.save(done, quarantined)
