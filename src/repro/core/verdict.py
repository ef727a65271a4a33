"""Claim verdicts and text markup (the "spell checker" output).

A claim is tentatively verified when the most likely query's result rounds
to the claimed value, and marked erroneous otherwise (paper Section 5.1:
"the system verifies the claim according to the query with the highest
probability"). The correctness probability — mass of matching candidates —
drives the markup intensity, mirroring Figure 3(a).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.db.query import SimpleAggregateQuery
from repro.db.sql import describe_query
from repro.db.values import Value
from repro.model.probability import ClaimDistribution
from repro.nlp.numbers import rounds_to
from repro.text.claims import Claim


class VerdictStatus(enum.Enum):
    VERIFIED = "verified"
    ERRONEOUS = "erroneous"
    UNRESOLVED = "unresolved"
    #: The claim was not checked: the service was shedding load under
    #: memory pressure (see ``service/workers.py::GroupExecutor``).
    UNVERIFIABLE = "unverifiable"

    @property
    def flagged(self) -> bool:
        """Whether the claim is marked up as (probably) wrong."""
        return self is not VerdictStatus.VERIFIED


@dataclass
class ClaimVerdict:
    """Tentative verification result for one claim."""

    claim: Claim
    status: VerdictStatus
    top_query: SimpleAggregateQuery | None
    top_result: Value
    probability_correct: float
    #: None only for UNVERIFIABLE verdicts (inference never ran).
    distribution: ClaimDistribution | None
    #: How the result was degraded: None (full inference), "scope"
    #: (a space budget refused full inference; shrunken evaluation
    #: scope), "no_exec" (query execution skipped), or "shed"
    #: (unverifiable: the service shed the claim under memory pressure).
    degraded: str | None = None

    @property
    def hover_text(self) -> str:
        """Natural-language description of the top query (Figure 3(b))."""
        if self.top_query is None:
            return "no query candidate found"
        result = self.top_result
        rendered = "NULL" if result is None else f"{result:g}"
        return f"{describe_query(self.top_query)} = {rendered}"


def make_verdict(
    claim: Claim,
    distribution: ClaimDistribution,
    degraded: str | None = None,
) -> ClaimVerdict:
    """Derive the tentative verdict from a claim's query distribution.

    Works position-first: only the single most likely candidate is
    materialized into a query object — the rest of the (factorized) space
    is never touched. ``degraded`` tags verdicts produced under a space
    budget (see the checker's degradation ladder).
    """
    position = distribution.top_position()
    if position is None:
        return ClaimVerdict(
            claim, VerdictStatus.UNRESOLVED, None, None, 0.0, distribution,
            degraded,
        )
    top_query = distribution.space.query_at(position)
    top_result = distribution.result_at(position)
    probability_correct = distribution.probability_correct()
    if distribution.outcome is None or not distribution.outcome.has_results():
        # Without evaluations there is nothing to compare against.
        return ClaimVerdict(
            claim,
            VerdictStatus.UNRESOLVED,
            top_query,
            None,
            probability_correct,
            distribution,
            degraded,
        )
    status = (
        VerdictStatus.VERIFIED
        if rounds_to(top_result, claim.claimed_value)
        else VerdictStatus.ERRONEOUS
    )
    return ClaimVerdict(
        claim, status, top_query, top_result, probability_correct,
        distribution, degraded,
    )


def unverifiable_verdict(claim: Claim) -> ClaimVerdict:
    """The shed verdict: inference never ran, nothing is known.

    UNVERIFIABLE is flagged (like UNRESOLVED): surfacing "we could not
    check this" beats silently passing a claim through.
    """
    return ClaimVerdict(
        claim, VerdictStatus.UNVERIFIABLE, None, None, 0.0, None, "shed"
    )


def render_markup(verdicts: list[ClaimVerdict]) -> str:
    """Plain-text markup: each claim's sentence with the claimed value
    bracketed as ``[OK ...]``, ``[ERR ... -> actual]``, or ``[? ...]``."""
    lines = []
    for verdict in verdicts:
        value = verdict.claim.mention.text
        if verdict.status is VerdictStatus.VERIFIED:
            marker = f"[OK {value}]"
        elif verdict.status is VerdictStatus.ERRONEOUS:
            actual = verdict.top_result
            rendered = "NULL" if actual is None else f"{actual:g}"
            marker = f"[ERR {value} -> {rendered}]"
        else:
            marker = f"[? {value}]"
        sentence = verdict.claim.sentence.text
        lines.append(f"{marker} {sentence}")
    return "\n".join(lines)
