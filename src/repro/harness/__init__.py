"""Evaluation harness: metrics, corpus runner, ablations.

Regenerates the paper's measurements that code can reproduce:
precision/recall/F1 on erroneous-claim detection, top-k coverage of
ground-truth queries (and from it the UI feature that resolves each
claim, Table 3), and processing statistics. The user studies (Tables 4,
8 and 11, Figures 6-7) measured people and are not reproduced.
"""

from repro.harness.metrics import (
    CaseResult,
    ClaimEvaluation,
    RunMetrics,
    aggregate_metrics,
    evaluate_case,
)
from repro.harness.checkpoint import CorpusCheckpoint, corpus_signature
from repro.harness.parallel import (
    RetryPolicy,
    run_corpus_parallel,
    shard_cases,
)
from repro.harness.runner import (
    CheckerPool,
    CorpusRun,
    merge_stats,
    run_case,
    run_corpus,
)

__all__ = [
    "CaseResult",
    "CheckerPool",
    "ClaimEvaluation",
    "CorpusCheckpoint",
    "CorpusRun",
    "RetryPolicy",
    "corpus_signature",
    "RunMetrics",
    "aggregate_metrics",
    "evaluate_case",
    "merge_stats",
    "run_case",
    "run_corpus",
    "run_corpus_parallel",
    "shard_cases",
]
