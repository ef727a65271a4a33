"""Evaluation harness: metrics, corpus runner, ablations.

Regenerates the paper's measurements that code can reproduce:
precision/recall/F1 on erroneous-claim detection, top-k coverage of
ground-truth queries (and from it the UI feature that resolves each
claim, Table 3), and processing statistics. The user studies (Tables 4,
8 and 11, Figures 6-7) measured people and are not reproduced.

:func:`run_corpus` verifies a corpus in-process through one
:class:`CheckerPool`. :class:`RetryPolicy` is the service's retry
schedule, re-exported from :mod:`repro.harness.parallel`.
"""

from repro.harness.metrics import (
    CaseResult,
    ClaimEvaluation,
    RunMetrics,
    aggregate_metrics,
    evaluate_case,
)
from repro.harness.parallel import RetryPolicy
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
    "CorpusRun",
    "RetryPolicy",
    "RunMetrics",
    "aggregate_metrics",
    "evaluate_case",
    "merge_stats",
    "run_case",
    "run_corpus",
]
