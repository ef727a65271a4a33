"""Hard expectation-maximization over claim queries (paper Algorithm 3).

Starting from uniform priors, each iteration (1) computes claim-specific
distributions from keyword scores and current priors, (2) refines them with
candidate evaluation results (``RefineByEval``), and (3) re-estimates the
document priors Θ from each claim's maximum-likelihood query. Iteration
stops when Θ moves less than a tolerance or an iteration cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.engine import QueryEngine
from repro.db.gather import SpaceResults
from repro.evalexec.refine import refine_by_eval_space
from repro.evalexec.scope import ScopeConfig
from repro.fragments.fragments import FragmentCatalog
from repro.model.candidates import CandidateSpace
from repro.model.priors import Priors
from repro.model.probability import (
    ClaimDistribution,
    EvaluationOutcome,
    compute_distribution,
)
from repro.text.claims import Claim


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the probabilistic model (ablations toggle the booleans)."""

    p_true: float = 0.999
    max_iterations: int = 5
    tolerance: float = 1e-3
    prior_smoothing: float = 0.5
    use_priors: bool = True
    use_evaluations: bool = True
    scope: ScopeConfig = field(default_factory=ScopeConfig)


@dataclass
class InferenceResult:
    """Output of Algorithm 3: per-claim distributions plus learned Θ."""

    distributions: dict[Claim, ClaimDistribution]
    priors: Priors | None
    iterations: int


def query_and_learn(
    spaces: dict[Claim, CandidateSpace],
    catalog: FragmentCatalog,
    engine: QueryEngine,
    config: EmConfig | None = None,
) -> InferenceResult:
    """Infer a query distribution per claim (paper ``QueryAndLearn``)."""
    config = config or EmConfig()
    priors = Priors.uniform(catalog) if config.use_priors else None

    # Iteration-to-iteration result reuse: per-claim value arrays.
    space_results: dict[Claim, SpaceResults] = {}
    outcomes: dict[Claim, EvaluationOutcome] = {}
    distributions: dict[Claim, ClaimDistribution] = {}
    iterations = 0

    full_scope = config.scope.max_evaluations_per_claim is None
    max_iterations = config.max_iterations if config.use_priors else 1
    for iteration in range(max_iterations):
        iterations = iteration + 1
        if config.use_evaluations:
            # With the full evaluation scope, results never change across
            # iterations — compute the outcomes once.
            if not outcomes or not full_scope:
                preliminary = None
                if not full_scope:
                    # Budgeted scope: rank candidates by keyword + prior.
                    preliminary = {
                        claim: compute_distribution(
                            space, priors, None, config.p_true
                        )
                        for claim, space in spaces.items()
                    }
                outcomes = refine_by_eval_space(
                    spaces,
                    preliminary,
                    engine,
                    config.scope,
                    space_results,
                )
            distributions = {
                claim: compute_distribution(
                    space, priors, outcomes.get(claim), config.p_true
                )
                for claim, space in spaces.items()
            }
        else:
            distributions = {
                claim: compute_distribution(space, priors, None, config.p_true)
                for claim, space in spaces.items()
            }

        if not config.use_priors:
            break

        # M-step: re-estimate Θ from maximum-likelihood queries.
        ml_queries = [
            query
            for distribution in distributions.values()
            if (query := distribution.top_query()) is not None
        ]
        new_priors = priors.update_from(ml_queries, config.prior_smoothing)
        moved = priors.distance(new_priors)
        priors = new_priors
        if moved < config.tolerance:
            break

    # Final distributions under the converged priors.
    if config.use_priors:
        distributions = {
            claim: compute_distribution(
                space,
                priors,
                outcomes.get(claim) if config.use_evaluations else None,
                config.p_true,
            )
            for claim, space in spaces.items()
        }
    return InferenceResult(distributions, priors, iterations)
