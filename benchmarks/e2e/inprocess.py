"""The four in-process workloads: a closed loop with one client.

Each document gets a new ``AggChecker`` — each generated case has its own
database — which is what ``repro check`` costs. The timed region is the
union of the per-document intervals; reading verdicts off a report for
the output checks happens between documents and is counted in no metric.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.checker import AggChecker, CheckReport
from repro.core.config import AggCheckerConfig
from repro.corpus import nfl_suspensions_case
from repro.corpus.spec import TestCase
from repro.db.engine import EngineConfig, EngineStats, ExecutionMode, QueryEngine
from repro.db.schema import Database
from repro.harness.metrics import aggregate_metrics, evaluate_case
from repro.service.protocol import verdict_payload
from repro.text.htmlparse import parse_html

from e2e import inputs
from e2e.spec import COLD_PASSES, WARM_PASSES, Sizes

#: (status, top query as SQL, top result) of one claim.
Triple = tuple


def verify_document(case: TestCase, config: AggCheckerConfig) -> CheckReport:
    """What ``repro check`` does for one article, cold."""
    document = parse_html(case.html)
    checker = AggChecker(case.database, config, case.data_dictionary)
    try:
        return checker.check_document(document)
    finally:
        checker.engine.close()


def triple_of(payload: dict) -> Triple:
    """The compared part of a verdict payload (CLI and service share it)."""
    return (payload["status"], payload["top_query"], payload["top_result"])


def is_degraded(payload: dict) -> bool:
    return "degraded" in payload or payload["status"] == "unverifiable"


def verdict_digest(triples) -> str:
    """SHA-256 over the ordered triples, floats at 9 significant digits."""
    digest = hashlib.sha256()
    for status, query, result in triples:
        shown = format(result, ".9g") if isinstance(result, float) else result
        digest.update(f"{status}|{query}|{shown}\n".encode("utf-8"))
    return digest.hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class DocOutcome:
    """What is kept of one verified document (the report is dropped, so
    peak RSS stays that of verifying, not of hoarding reports)."""

    seconds: float
    cpu_seconds: float
    triples: list[Triple]
    degraded: int
    stats: EngineStats
    #: Exact counts against the ground truth: claims whose true query
    #: ranked first, flagged-and-erroneous, flagged, erroneous.
    fidelity: tuple[int, int, int, int]


def run_pass(
    cases: list[TestCase], config: AggCheckerConfig
) -> list[DocOutcome]:
    """Verify the cases one after another, timing each document."""
    outcomes = []
    for case in cases:
        cpu_started = time.process_time()
        started = time.perf_counter()
        report = verify_document(case, config)
        seconds = time.perf_counter() - started
        cpu_seconds = time.process_time() - cpu_started
        payloads = [verdict_payload(verdict) for verdict in report.verdicts]
        scored = aggregate_metrics([evaluate_case(case, report)])
        outcomes.append(
            DocOutcome(
                seconds,
                cpu_seconds,
                [triple_of(payload) for payload in payloads],
                sum(1 for payload in payloads if is_degraded(payload)),
                report.engine_stats,
                (
                    scored.coverage_counts[1], scored.true_positives,
                    scored.n_flagged, scored.n_erroneous,
                ),
            )
        )
    return outcomes


def pass_seconds(outcomes: list[DocOutcome]) -> float:
    return sum(outcome.seconds for outcome in outcomes)


def pass_triples(outcomes: list[DocOutcome]) -> list[Triple]:
    return [triple for outcome in outcomes for triple in outcome.triples]


def warm_up() -> None:
    """One throwaway three-claim document: imports, NumPy, lazy tables.
    Nothing else is warmed: CLI users pay cold costs on every run."""
    verify_document(nfl_suspensions_case(), AggCheckerConfig())


@dataclass
class Run:
    """One workload run, before its numbers are given metric names."""

    setup_s: float
    #: Peak RSS read when the timed region ended, before the output checks.
    peak_rss_mb: float
    #: Every timed verification, in order, pass after pass.
    outcomes: list[DocOutcome]
    #: Triples the digest covers: the first pass over the inputs.
    triples: list[Triple]
    #: Output-check failures, human-readable; empty when all pass.
    problems: list[str]
    #: Claims that failed (degraded, or differing from the reference).
    failed: int
    #: Workload-specific numbers for the per-layer report.
    extra: dict
    #: Equivalent passes ``outcomes`` holds over the same documents. A
    #: document's time is then the median of its verifications, so a
    #: neighbour's burst that hits one of them does not move the metrics.
    repeats: int = 1

    @property
    def claims(self) -> int:
        return sum(len(outcome.triples) for outcome in self.outcomes)

    def _per_document(self, field: str) -> list[float]:
        documents = len(self.outcomes) // self.repeats
        return [
            statistics.median(
                getattr(outcome, field)
                for outcome in self.outcomes[index::documents]
            )
            for index in range(documents)
        ]

    def end_to_end(self) -> dict[str, float]:
        wall = self.repeats * sum(self._per_document("seconds"))
        cpu = self.repeats * sum(self._per_document("cpu_seconds"))
        return {
            "setup_s": self.setup_s,
            "claims_per_s": self.claims / wall,
            "cpu_s_per_claim": cpu / self.claims,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def latencies(self) -> list[float]:
        """Per-document latency samples, one per distinct timed document."""
        return self._per_document("seconds")


@dataclass
class Context:
    """What a workload is given: sizes, seed, length, and where it may
    write. ``tracing()`` brackets the timed region; in a traced run it
    installs the wrappers, so set-up and output checks stay untraced."""

    sizes: Sizes
    seed: int
    seconds: float
    #: ``perf_counter`` reading from which ``setup_s`` is measured.
    started: float
    workdir: Path
    tracing: object = nullcontext

    def documents(self, per_second: float) -> int:
        return max(1, round(per_second * self.seconds))

    def setup_done(self) -> float:
        return time.perf_counter() - self.started


def _compare(
    label: str, got: list[Triple], want: list[Triple], problems: list[str]
) -> int:
    """Claims whose triple differs from the reference (all, if the claim
    counts differ)."""
    if len(got) != len(want):
        problems.append(f"{label}: {len(got)} claims, reference {len(want)}")
        return max(len(got), len(want))
    differing = sum(1 for a, b in zip(got, want) if a != b)
    if differing:
        problems.append(f"{label}: {differing} verdict(s) differ")
    return differing


def corpus_cold(ctx: Context) -> Run:
    cases = inputs.corpus_cases(
        ctx.seed, ctx.documents(ctx.sizes.corpus_docs_per_second)
    )
    warm_up()
    setup_s = ctx.setup_done()
    with ctx.tracing():
        outcomes = run_pass(cases, AggCheckerConfig())
    peak = peak_rss_mb()

    # Output check: every n-th document again on the per-query row oracle.
    oracle = AggCheckerConfig(
        engine=EngineConfig(mode=ExecutionMode.NAIVE, backend="row")
    )
    problems: list[str] = []
    failed = sum(outcome.degraded for outcome in outcomes)
    for index in range(0, len(cases), ctx.sizes.oracle_every):
        reference = run_pass([cases[index]], oracle)[0]
        failed += _compare(
            f"document {index} vs NAIVE/row oracle",
            outcomes[index].triples, reference.triples, problems,
        )
    return Run(
        setup_s, peak, outcomes, pass_triples(outcomes), problems, failed, {}
    )


def _bigrows_cases(ctx: Context) -> list[TestCase]:
    """The big-table articles, shared by the two ``bigrows_*`` workloads."""
    groups = inputs.themed_cases(
        ctx.seed, "bigrows",
        ctx.documents(ctx.sizes.bigrows_docs_per_second),
        ctx.sizes.bigrows_rows, article=inputs.BIGROWS_ARTICLE,
    )
    return [group[0] for group in groups]


def _check_ground_truth(
    cases: list[TestCase], outcomes: list[DocOutcome], problems: list[str]
) -> int:
    """The engine reproduces every claim's generated ground truth, and a
    verdict that picked the true query reports the true result."""
    failed = 0
    for index, (case, outcome) in enumerate(zip(cases, outcomes)):
        engine = QueryEngine(case.database)
        for truth, (_, query, result) in zip(case.ground_truth, outcome.triples):
            value = engine.evaluate_one(truth.query)
            wrong = not _same_value(value, truth.true_result) or (
                query == str(truth.query)
                and not _same_value(result, truth.true_result)
            )
            if wrong:
                failed += 1
                problems.append(
                    f"document {index}: {truth.sql} = {value!r}, verdict "
                    f"{result!r}, ground truth {truth.true_result!r}"
                )
        engine.close()
    return failed


def _same_value(value, expected) -> bool:
    if value is None or expected is None:
        return value is expected
    return math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-12)


def bigrows_cold(ctx: Context) -> Run:
    cases = _bigrows_cases(ctx)
    warm_up()
    setup_s = ctx.setup_done()
    # Tables this size take seconds to generate, so the run has room for
    # few of them; each is verified COLD_PASSES times instead, every time
    # as a new process would see it, and timed at the median.
    with ctx.tracing():
        passes = [
            run_pass(_as_new_process_sees(cases), AggCheckerConfig())
            for _ in range(COLD_PASSES)
        ]
    peak = peak_rss_mb()
    problems: list[str] = []
    outcomes = [outcome for one in passes for outcome in one]
    failed = sum(outcome.degraded for outcome in outcomes)
    failed += _check_ground_truth(cases, passes[0], problems)
    reference = pass_triples(passes[0])
    for number, one in enumerate(passes[1:], 2):
        failed += _compare(
            f"pass {number} vs pass 1", pass_triples(one), reference, problems
        )
    return Run(
        setup_s, peak, outcomes, reference, problems, failed, {},
        repeats=COLD_PASSES,
    )


def _as_new_process_sees(cases: list[TestCase]) -> list[TestCase]:
    """The same tables under fresh ``Database`` objects.

    The content fingerprint that keys the disk tier is memoised per
    ``Database`` object; a re-run in a new process hashes the rows again,
    so every pass here must too.
    """
    return [
        replace(
            case,
            database=Database(
                case.database.name,
                case.database.tables,
                case.database.foreign_keys,
            ),
        )
        for case in cases
    ]


def _directory_bytes(directory: Path) -> int:
    return sum(
        path.stat().st_size for path in directory.rglob("*") if path.is_file()
    )


def bigrows_disk_rerun(ctx: Context) -> Run:
    cases = _bigrows_cases(ctx)
    cache_dir = ctx.workdir / "cube-cache"
    config = AggCheckerConfig(engine=EngineConfig(cache_dir=cache_dir))
    warm_up()
    setup_s = ctx.setup_done()

    with ctx.tracing():
        store = run_pass(_as_new_process_sees(cases), config)
        bytes_written = _directory_bytes(cache_dir)
        warm = [
            run_pass(_as_new_process_sees(cases), config)
            for _ in range(WARM_PASSES)
        ]
    peak = peak_rss_mb()

    problems: list[str] = []
    outcomes = store + [outcome for one in warm for outcome in one]
    failed = sum(outcome.degraded for outcome in outcomes)
    failed += _check_ground_truth(cases, store, problems)
    reference = pass_triples(store)
    for number, one in enumerate(warm, 1):
        failed += _compare(
            f"warm pass {number} vs store pass",
            pass_triples(one), reference, problems,
        )
        stats = EngineStats()
        for outcome in one:
            stats += outcome.stats
        if stats.cube_queries or stats.disk_misses or not stats.disk_hits:
            problems.append(
                f"warm pass {number} not served from disk: cube_queries="
                f"{stats.cube_queries} disk_hits={stats.disk_hits} "
                f"disk_misses={stats.disk_misses}"
            )
    extra = {
        "harness.store_pass_s": pass_seconds(store),
        "harness.warm_pass_s": statistics.median(
            pass_seconds(one) for one in warm
        ),
        "db.diskcache.bytes_written": bytes_written,
        "store_documents": len(store),
    }
    return Run(setup_s, peak, outcomes, reference, problems, failed, extra)


def sqlite_pushdown(ctx: Context) -> Run:
    groups = inputs.themed_cases(
        ctx.seed, "sqlite",
        ctx.documents(ctx.sizes.sqlite_docs_per_second),
        ctx.sizes.sqlite_rows, article=inputs.LONG_REPORT,
    )
    cases = [group[0] for group in groups]
    warm_up()
    setup_s = ctx.setup_done()
    with ctx.tracing():
        outcomes = run_pass(
            cases, AggCheckerConfig(engine=EngineConfig(backend="sqlite"))
        )
    peak = peak_rss_mb()

    problems: list[str] = []
    failed = sum(outcome.degraded for outcome in outcomes)
    columnar = run_pass(cases, AggCheckerConfig())
    failed += _compare(
        "sqlite vs columnar", pass_triples(outcomes), pass_triples(columnar),
        problems,
    )
    materialized = sum(outcome.stats.rows_materialized for outcome in outcomes)
    if materialized:
        problems.append(f"sqlite materialized {materialized} rows in Python")
    return Run(
        setup_s, peak, outcomes, pass_triples(outcomes), problems, failed, {}
    )
