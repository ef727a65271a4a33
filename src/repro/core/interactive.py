"""Interactive verification session (paper Figure 3, Table 3).

After automated checking, users resolve each claim by accepting the top
suggestion (1 click), picking among the top-5 (2 clicks), the top-10
(3 clicks), or assembling a custom query from fragments. The session
records which feature resolved each claim — the distribution reported in
the paper's Table 3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.checker import CheckReport
from repro.db.query import SimpleAggregateQuery
from repro.db.sql import describe_query
from repro.db.values import Value
from repro.nlp.numbers import rounds_to
from repro.text.claims import Claim
from repro.errors import CheckerError


class ResolutionFeature(enum.Enum):
    """Which UI feature resolved a claim (Table 3 columns)."""

    TOP_1 = "top-1"
    TOP_5 = "top-5"
    TOP_10 = "top-10"
    CUSTOM = "custom"

    @property
    def clicks(self) -> int:
        return {
            ResolutionFeature.TOP_1: 1,
            ResolutionFeature.TOP_5: 2,
            ResolutionFeature.TOP_10: 3,
            ResolutionFeature.CUSTOM: 5,
        }[self]

    @classmethod
    def for_rank(cls, rank: int | None) -> "ResolutionFeature":
        """The feature that resolves a claim whose query is the rank-th
        suggestion (1 = top). The UI lists only the top 10, so a lower
        rank, or none, takes a custom query."""
        if rank is None or rank > 10:
            return cls.CUSTOM
        if rank <= 1:
            return cls.TOP_1
        if rank <= 5:
            return cls.TOP_5
        return cls.TOP_10


@dataclass
class Resolution:
    """A user's final decision for one claim."""

    claim: Claim
    query: SimpleAggregateQuery
    result: Value
    feature: ResolutionFeature
    claim_is_correct: bool


class InteractiveSession:
    """Drives corrective actions over a :class:`CheckReport`.

    ``engine`` is needed only to evaluate custom queries that fall outside
    the already-evaluated candidate scope; ``AggChecker.interactive`` wires
    its own engine in.
    """

    def __init__(self, report: CheckReport, engine=None) -> None:
        self.report = report
        self.engine = engine
        self._resolutions: dict[tuple[str, int], Resolution] = {}

    def _distribution_of(self, claim: Claim):
        distribution = self.report.verdict_for(claim).distribution
        if distribution is None:
            raise CheckerError(
                "claim was not verified (an unverifiable verdict carries "
                "no candidate distribution); re-check it once the service "
                "stops shedding to interact with it"
            )
        return distribution

    # -- inspection ------------------------------------------------------

    def suggestions(
        self, claim: Claim, k: int = 5
    ) -> list[tuple[SimpleAggregateQuery, str, float]]:
        """Top-k candidates with natural-language descriptions."""
        distribution = self._distribution_of(claim)
        return [
            (query, describe_query(query), probability)
            for query, probability in distribution.top_queries(k)
        ]

    def pending(self) -> list[Claim]:
        return [
            claim
            for claim in self.report.claims
            if claim.key() not in self._resolutions
        ]

    def resolutions(self) -> list[Resolution]:
        return list(self._resolutions.values())

    # -- corrective actions ------------------------------------------------

    def accept_top(self, claim: Claim) -> Resolution:
        """Accept the system's most likely query (1 click)."""
        return self.select_rank(claim, 1)

    def select_rank(self, claim: Claim, rank: int) -> Resolution:
        """Pick the rank-th candidate (rank 1 = top suggestion)."""
        distribution = self._distribution_of(claim)
        top = distribution.top_queries(rank)
        if len(top) < rank:
            raise CheckerError(
                f"claim has only {len(top)} candidates; rank {rank} unavailable"
            )
        query = top[rank - 1][0]
        return self._resolve(claim, query, ResolutionFeature.for_rank(rank))

    def set_custom(self, claim: Claim, query: SimpleAggregateQuery) -> Resolution:
        """Assemble a query by hand from fragments (Figure 3(d))."""
        return self._resolve(claim, query, ResolutionFeature.CUSTOM)

    def _resolve(
        self, claim: Claim, query: SimpleAggregateQuery, feature: ResolutionFeature
    ) -> Resolution:
        distribution = self._distribution_of(claim)
        # Consults the claim's own candidate results; queries outside the
        # claim's space (e.g. another claim's candidate) fall through to
        # the engine below.
        evaluated = (
            distribution.outcome is not None
            and distribution.outcome.is_evaluated(distribution.space, query)
        )
        if evaluated:
            result = distribution.result_of(query)
        else:
            # Custom queries outside the evaluated scope run on the
            # engine's route (the cubes and cache the candidates used).
            if self.engine is None:
                raise CheckerError(
                    "evaluating a custom query requires an engine; "
                    "create the session via AggChecker.interactive()"
                )
            result = self.engine.evaluate_one(query)
        resolution = Resolution(
            claim=claim,
            query=query,
            result=result,
            feature=feature,
            claim_is_correct=rounds_to(result, claim.claimed_value),
        )
        self._resolutions[claim.key()] = resolution
        return resolution
