"""Massive-scale candidate evaluation (paper Section 6).

``PickScope`` selects which candidates to evaluate under a cost budget;
``RefineByEval`` evaluates them through the merging/caching query engine
and produces per-claim evaluation outcomes for the probabilistic model.
"""

from repro.evalexec.refine import refine_by_eval_space
from repro.evalexec.scope import ScopeConfig, scope_mask

__all__ = [
    "ScopeConfig",
    "refine_by_eval_space",
    "scope_mask",
]
