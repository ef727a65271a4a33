"""Claim-specific query distributions (paper Section 5.3, Eq. 2-5).

log Pr(Q = q | S, E) = log Pr(S|q) + log Pr(E|q) + log Pr(q) + const

- Pr(S|q): product of normalized keyword relevance scores of q's fragments;
- Pr(E|q): pT if q's evaluated result rounds to the claimed value, else
  1 - pT (only candidates selected for evaluation are compared);
- Pr(q):  priors Θ — p_f(q) * p_a(q) * prod_i p_r(i)^[restricted]
  (1-p_r(i))^[not]; the common prod(1-p_r) factor cancels under
  normalization, leaving a log-odds term per restricted column.

Evaluation results never change between EM iterations, so the match vector
is computed once per claim (:class:`EvaluationOutcome`) and re-used by
every :func:`compute_distribution` call. One constructor feeds it,
:meth:`EvaluationOutcome.from_value_ids`, from the per-candidate value
arrays ``QueryEngine.evaluate_spaces`` fills: a vectorized near-filter
discards the candidates that cannot match and ``rounds_to`` runs on the
rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.db.gather import SpaceResults
from repro.db.query import SimpleAggregateQuery
from repro.db.values import Value
from repro.model.candidates import CandidateSpace
from repro.model.priors import Priors
from repro.nlp.numbers import near_claimed, rounds_to

_NEG_INF = float("-inf")


@dataclass
class EvaluationOutcome:
    """Evaluation results for one claim's candidates, aligned with the
    candidate space (computed once, reused across EM iterations): the
    engine-filled :class:`~repro.db.gather.SpaceResults` plus the masks
    derived from it."""

    space_results: SpaceResults
    evaluated: np.ndarray  # bool per candidate
    matches: np.ndarray  # bool per candidate (rounds to claimed value)
    #: whether *any* results exist document-wide, even when this claim
    #: evaluated none (without any there is nothing to compare against)
    pool_nonempty: bool = False

    def has_results(self) -> bool:
        """True when any evaluation results exist for the document."""
        return self.pool_nonempty

    def result_at(self, position: int) -> Value:
        """Result of the candidate at ``position`` (None if unevaluated)."""
        return self.space_results.value_at(position)

    def result_for(self, space: CandidateSpace, query: SimpleAggregateQuery) -> Value:
        """Result of ``query`` (None when it has no recorded result)."""
        position = space.position_of(query)
        if position is None:
            return None
        return self.space_results.value_at(position)

    def is_evaluated(self, space: CandidateSpace, query: SimpleAggregateQuery) -> bool:
        """Whether ``query`` has a recorded evaluation result."""
        position = space.position_of(query)
        return position is not None and self.space_results.has_value_at(position)

    @classmethod
    def from_value_ids(
        cls,
        space: CandidateSpace,
        results: SpaceResults,
        scope_mask: np.ndarray | None = None,
        pool_nonempty: bool = True,
    ) -> "EvaluationOutcome":
        """Build the outcome from factorized space results.

        ``scope_mask`` restricts which candidates count as evaluated this
        EM iteration (None = all with results). The match vector comes
        from the conservative vectorized near-filter on
        ``results.numbers``; the exact ``rounds_to`` then runs once per
        distinct surviving value, so verdicts are those of checking every
        candidate.
        """
        claimed = space.claim.claimed_value
        evaluated = results.done.copy()  # the engine fills ``done`` in place
        if scope_mask is not None:
            evaluated &= np.asarray(scope_mask)
        matches = np.zeros(len(space), dtype=bool)
        candidates = np.flatnonzero(evaluated)
        near = candidates[near_claimed(results.numbers[candidates], claimed)]
        if len(near):
            verdict_of: dict[tuple[type, Value], bool] = {}
            hits = []
            for position, value in zip(
                near.tolist(), results.values[near].tolist()
            ):
                key = (value.__class__, value)  # 3 and 3.0 stay distinct
                hit = verdict_of.get(key)
                if hit is None:
                    hit = verdict_of[key] = rounds_to(value, claimed)
                if hit:
                    hits.append(position)
            matches[hits] = True
        return cls(results, evaluated, matches, pool_nonempty)


@dataclass
class ClaimDistribution:
    """Posterior over candidate queries for one claim."""

    space: CandidateSpace
    log_scores: np.ndarray
    probabilities: np.ndarray
    outcome: EvaluationOutcome | None

    def top_positions(self, k: int) -> list[int]:
        """Positions of the k most likely candidates, best first."""
        if len(self.space) == 0:
            return []
        order = np.argsort(-self.probabilities, kind="stable")[:k]
        return [int(i) for i in order]

    def top_position(self) -> int | None:
        top = self.top_positions(1)
        return top[0] if top else None

    def top_queries(self, k: int) -> list[tuple[SimpleAggregateQuery, float]]:
        """The k most likely candidates with their probabilities.

        Materializes only the k returned queries — the rest of the space
        stays factorized.
        """
        return [
            (self.space.query_at(i), float(self.probabilities[i]))
            for i in self.top_positions(k)
        ]

    def top_query(self) -> SimpleAggregateQuery | None:
        top = self.top_queries(1)
        return top[0][0] if top else None

    def result_at(self, position: int) -> Value:
        """Evaluation result of the candidate at ``position``."""
        if self.outcome is None:
            return None
        return self.outcome.result_at(position)

    def result_of(self, query: SimpleAggregateQuery) -> Value:
        if self.outcome is None:
            return None
        return self.outcome.result_for(self.space, query)

    def rank_of(self, query: SimpleAggregateQuery) -> int | None:
        """1-based rank of a query in the distribution (None if absent)."""
        position = self.space.position_of(query)
        if position is None:
            return None
        better = np.sum(self.probabilities > self.probabilities[position])
        return int(better) + 1

    def probability_correct(self) -> float:
        """Probability mass on candidates whose result matches the claim."""
        if self.outcome is None or len(self.space) == 0:
            return 0.0
        return float(self.probabilities[self.outcome.matches].sum())


def compute_distribution(
    space: CandidateSpace,
    priors: Priors | None = None,
    outcome: EvaluationOutcome | None = None,
    p_true: float = 0.999,
) -> ClaimDistribution:
    """Combine keyword scores, priors, and evaluation results.

    ``priors=None`` drops the Θ term and ``outcome=None`` drops the E term
    (the Table 10 ablation ladder).
    """
    n = len(space)
    if n == 0:
        return ClaimDistribution(space, np.zeros(0), np.zeros(0), outcome)

    log_scores = (
        space.fn_keyword_log[space.fn_index]
        + space.col_keyword_log[space.col_index]
        + space.subset_keyword_log[space.subset_index]
    )

    if priors is not None:
        log_scores = log_scores + _prior_term(space, priors)

    if outcome is not None and outcome.evaluated.any():
        log_true = math.log(p_true)
        log_false = math.log(max(1.0 - p_true, 1e-12))
        eval_term = np.where(outcome.matches, log_true, log_false)
        # Candidates not selected for evaluation are excluded from the
        # comparison (paper Section 5.3).
        eval_term = np.where(outcome.evaluated, eval_term, _NEG_INF)
        log_scores = log_scores + eval_term

    probabilities = _softmax(log_scores)
    return ClaimDistribution(space, log_scores, probabilities, outcome)


def _prior_term(space: CandidateSpace, priors: Priors) -> np.ndarray:
    """Per-candidate log-prior, as pure integer gathers.

    The priors expose layout-aligned log tables built once per instance
    (:meth:`~repro.model.priors.Priors.log_tables`); the space caches its
    slot arrays once per document (:meth:`CandidateSpace.prior_slots`, the
    layout is shared by every M-step instance). The E-step therefore does
    no per-fragment dict lookups at all — values and accumulation order
    are identical to the dict-walking implementation this replaces.
    """
    fn_table, col_table, odds_table = priors.log_tables()
    fn_slots, col_slots, odds_slots = space.prior_slots(priors.layout())
    _, flat_subset, flat_column = space.prior_arrays()
    odds = odds_table[odds_slots]
    # Sequential accumulation in (subset, fragment) order: identical float
    # addition order to the per-fragment Python sum it replaces.
    subset_prior = np.zeros(len(space.subset_matrix))
    np.add.at(subset_prior, flat_subset, odds[flat_column])
    return (
        fn_table[fn_slots][space.fn_index]
        + col_table[col_slots][space.col_index]
        + subset_prior[space.subset_index]
    )


def _softmax(log_scores: np.ndarray) -> np.ndarray:
    finite = log_scores[np.isfinite(log_scores)]
    if finite.size == 0:
        return np.full(log_scores.shape, 1.0 / max(len(log_scores), 1))
    shifted = log_scores - finite.max()
    with np.errstate(under="ignore"):
        weights = np.exp(np.clip(shifted, -700.0, 0.0))
    weights[~np.isfinite(log_scores)] = 0.0
    total = weights.sum()
    if total <= 0:
        return np.full(log_scores.shape, 1.0 / max(len(log_scores), 1))
    return weights / total
