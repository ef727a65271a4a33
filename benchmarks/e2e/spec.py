"""What the benchmark fixes: metric names, workload names, input sizes.

``BENCHMARK.json`` at the repository root repeats the metric and workload
names (the smoke test checks the two agree); later issues cite metrics by
these names, so a name is never reused for a different definition.
"""

from __future__ import annotations

from dataclasses import dataclass

#: (name, unit, better). Every workload reports every one of these from an
#: untraced run. Definitions are in README.md.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("claims_per_s", "claims/s", "higher"),
    ("cpu_s_per_claim", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Span names, one per wrapped call site; each yields ``<name>`` (self busy
#: seconds summed over the run) and ``<name>_share`` (self time / root
#: document time).
LAYER_TIMES = (
    "text.parse_s",
    "fragments.extract_s",
    "fragments.index_compile_s",
    "matching.match_s",
    "model.candidates_s",
    "model.encoding_s",
    "model.distribution_s",
    "model.outcome_s",
    "nlp.rounds_to_s",
    "model.mstep_s",
    "model.em_self_s",
    "evalexec.refine_self_s",
    "db.engine_self_s",
    "db.adapter_build_s",
    "db.relation_build_s",
    "db.cube_exec_s",
    "db.gather_s",
    "db.diskcache.fingerprint_s",
    "db.diskcache.store_s",
    "db.diskcache.load_s",
    "db.sql.exec_s",
    "core.verdict_s",
    "core.construct_self_s",
    "core.check_self_s",
    "harness.doc_self_s",
)

#: (name, unit, better) of the remaining per-layer metrics: counts and
#: ratios taken at the same boundaries, the harness-level timings that are
#: not common to all workloads, and everything read from the served run.
LAYER_OTHER = (
    ("text.claims", "count", "lower"),
    ("fragments.count", "count", "lower"),
    ("model.candidates", "count", "lower"),
    ("model.distribution_calls", "count", "lower"),
    ("nlp.rounds_to_calls", "count", "lower"),
    ("model.em_iterations", "count", "lower"),
    ("evalexec.scoped_candidates", "count", "lower"),
    ("db.cube_queries", "count", "lower"),
    ("db.rows_scanned", "count", "lower"),
    ("db.gathered_candidates", "count", "lower"),
    ("db.cache.hit_ratio", "ratio", "higher"),
    ("db.diskcache.bytes_written", "bytes", "lower"),
    ("db.diskcache.hit_ratio", "ratio", "higher"),
    ("db.sql.pushdown_queries", "count", "lower"),
    ("db.rows_materialized", "count", "lower"),
    ("core.degraded", "count", "lower"),
    ("fidelity.top1_covered", "count", "higher"),
    ("fidelity.true_positives", "count", "higher"),
    ("fidelity.flagged", "count", "lower"),
    ("fidelity.erroneous", "count", "lower"),
    ("harness.documents", "count", "higher"),
    ("harness.doc_latency_p50_s", "s", "lower"),
    ("harness.doc_latency_p90_s", "s", "lower"),
    ("harness.store_pass_s", "s", "lower"),
    ("harness.warm_pass_s", "s", "lower"),
    ("harness.store_pass_over_cold_s", "s", "lower"),
    ("service.server_seconds_p50", "s", "lower"),
    ("service.overhead_p50_s", "s", "lower"),
    ("service.incremental_hit_ratio", "ratio", "higher"),
    ("service.deduped_claims", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.client_retries", "count", "lower"),
    ("service.queue_depth_max", "count", "lower"),
    ("service.engine_cube_queries", "count", "lower"),
    ("service.rss_mb", "MB", "lower"),
    ("service.generator_late_p90_s", "s", "lower"),
    ("service.inflight_blocked", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

PER_LAYER = (
    tuple((name, "s", "lower") for name in LAYER_TIMES)
    + tuple((f"{name}_share", "ratio", "lower") for name in LAYER_TIMES)
    + LAYER_OTHER
)

WORKLOADS = (
    "corpus_cold",
    "bigrows_cold",
    "bigrows_disk_rerun",
    "sqlite_pushdown",
    "served_mixed",
)

#: Fixed arrival rate of the open-loop workload, documents per second. Not
#: a sweep: capacity is tracked as server ``cpu_s_per_claim`` (README).
SERVED_RATE = 4.0

#: Times ``bigrows_cold`` verifies each document (timed at the median).
COLD_PASSES = 3

#: Warm passes over the populated cube cache in ``bigrows_disk_rerun``.
WARM_PASSES = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one scale.

    The closed-loop workloads cannot be told how long to run — a document
    takes what it takes — so ``--seconds`` sets their document count
    instead, through the ``*_per_second`` rates below; the rates are
    calibrated on the reference box so that the timed region there lasts
    about ``--seconds``. The open-loop workload lasts ``--seconds``
    exactly.
    """

    #: corpus_cold: paper-sized articles per second of ``--seconds``.
    corpus_docs_per_second: float
    #: bigrows_cold, bigrows_disk_rerun: articles (one table of
    #: ``bigrows_rows`` rows each); the two make ``COLD_PASSES`` and
    #: 1 + ``WARM_PASSES`` passes over the same ones.
    bigrows_docs_per_second: float
    bigrows_rows: int
    #: sqlite_pushdown: articles (one table of ``sqlite_rows`` rows each).
    sqlite_docs_per_second: float
    sqlite_rows: int
    #: served_mixed: databases the arrivals are spread over.
    served_databases: int
    #: corpus_cold re-verifies every n-th document on the NAIVE/row oracle.
    oracle_every: int


SCALES = {
    "full": Sizes(
        corpus_docs_per_second=9.0,
        bigrows_docs_per_second=0.4,
        bigrows_rows=100_000,
        sqlite_docs_per_second=0.8,
        sqlite_rows=5_000,
        served_databases=8,
        oracle_every=30,
    ),
    # Tiny inputs for the tier-1 smoke test; --seconds still scales them.
    "smoke": Sizes(
        corpus_docs_per_second=1.0,
        bigrows_docs_per_second=0.5,
        bigrows_rows=1_000,
        sqlite_docs_per_second=0.5,
        sqlite_rows=200,
        served_databases=2,
        oracle_every=100,
    ),
}
