"""RefineByEval: evaluate promising candidates and fold results into the
claim distributions (paper Algorithm 4).

All scoped candidates of *all* claims are submitted to the query engine in
one batch: the engine merges them into a small number of cube queries and
caches cells across claims and EM iterations — exactly the sharing
structure the paper exploits (Sections 6.2-6.3).

Claims stay factorized end to end. Each claim contributes a scope *mask*
over its candidate space; the engine answers the spaces by cell gather
(``QueryEngine.evaluate_spaces``), and iteration-to-iteration reuse is
carried as per-claim :class:`~repro.db.gather.SpaceResults` (value
arrays). No option selects another route; the list entry point
``QueryEngine.evaluate`` is the reference tests compare this against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.db.engine import QueryEngine
from repro.db.gather import SpaceEvalRequest, SpaceResults
from repro.evalexec.scope import ScopeConfig, scope_mask
from repro.text.claims import Claim

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle with model
    from repro.model.candidates import CandidateSpace
    from repro.model.probability import ClaimDistribution, EvaluationOutcome


def refine_by_eval_space(
    spaces: "dict[Claim, CandidateSpace]",
    preliminary: "dict[Claim, ClaimDistribution] | None",
    engine: QueryEngine,
    scope_config: ScopeConfig | None = None,
    carried: dict[Claim, SpaceResults] | None = None,
) -> "dict[Claim, EvaluationOutcome]":
    """RefineByEval over factorized spaces (no query materialization).

    ``carried`` maps claims to :class:`~repro.db.gather.SpaceResults`
    reused across EM iterations: candidates already answered in an earlier
    iteration keep their values and only newly scoped ones reach the
    engine. Pass None to re-evaluate from scratch (the Table 6
    "no result reuse" rungs).
    """
    from repro.model.probability import EvaluationOutcome

    config = scope_config or ScopeConfig()
    full_scope = config.max_evaluations_per_claim is None

    requests: list[SpaceEvalRequest] = []
    masks: dict[Claim, np.ndarray] = {}
    held: dict[Claim, SpaceResults] = {}
    for claim, space in spaces.items():
        log_scores = None
        if (
            not full_scope
            and preliminary is not None
            and claim in preliminary
        ):
            log_scores = preliminary[claim].log_scores
        mask = scope_mask(space, log_scores, config)
        results = carried.get(claim) if carried is not None else None
        if results is None:
            results = SpaceResults.for_space(space)
            if carried is not None:
                carried[claim] = results
        need = mask & ~results.evaluated_mask()
        requests.append(SpaceEvalRequest(space, need, results))
        masks[claim] = mask
        held[claim] = results

    engine.evaluate_spaces(requests)

    pool_nonempty = any(results.any_evaluated() for results in held.values())
    return {
        claim: EvaluationOutcome.from_value_ids(
            spaces[claim], held[claim], masks[claim], pool_nonempty
        )
        for claim in spaces
    }
