"""Evaluation-scope selection (paper Function PickScope, Section 6.1).

The paper expands the scope along marginal probabilities of query
characteristics until an evaluation cost threshold is hit. Candidate
spaces here are already bounded by the retrieval budgets ("# Hits",
aggregation-column budget), so the default scope is the full space —
matching the paper's observation that one cube query can serve the whole
cross product. A per-claim budget trims to the most probable candidates
when set (used in the Figure 13 time/quality sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # avoid a runtime cycle with repro.model
    from repro.model.candidates import CandidateSpace


@dataclass(frozen=True)
class ScopeConfig:
    """Evaluation budget per claim (None = evaluate the full space)."""

    max_evaluations_per_claim: int | None = None


def scope_mask(
    space: CandidateSpace,
    preliminary_log_scores: np.ndarray | None,
    config: ScopeConfig | None = None,
) -> np.ndarray:
    """Boolean mask over the candidates worth evaluating for one claim
    (paper ``PickScope``): the whole space, or under a budget the
    ``budget`` best by preliminary score (ties keep space order; with no
    scores, the first ``budget`` candidates)."""
    config = config or ScopeConfig()
    n = len(space)
    budget = config.max_evaluations_per_claim
    if budget is None or budget >= n:
        return np.ones(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    if preliminary_log_scores is None or len(preliminary_log_scores) != n:
        mask[:budget] = True
        return mask
    order = np.argsort(-preliminary_log_scores, kind="stable")[:budget]
    mask[order] = True
    return mask
