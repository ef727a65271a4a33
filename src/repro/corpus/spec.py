"""Specifications for corpus themes, test cases, and ground truth."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.db.query import SimpleAggregateQuery
from repro.db.schema import Database
from repro.errors import CorpusError
from repro.text.claims import Claim, detect_claims
from repro.text.document import Document
from repro.text.htmlparse import parse_html


@dataclass(frozen=True)
class ColumnSpec:
    """Blueprint for one generated column.

    ``kind``:
      - ``category``: values drawn from ``values``; predicate target.
      - ``entity``: unique-ish names (rarely predicates).
      - ``numeric``: numbers in ``numeric_range``; aggregation target.
      - ``year``: calendar years (numeric, also a predicate target).

    ``phrase`` is how article text refers to the column ("category",
    "team"); ``value_phrases`` maps data values to the wording used in text
    — when the wording differs from the stored value ("indef" vs "lifetime
    bans") the claim is hard for keyword matching, reproducing the paper's
    abbreviation challenge.
    """

    name: str
    kind: str
    values: tuple[str, ...] = ()
    numeric_range: tuple[float, float] = (0.0, 100.0)
    integer: bool = True
    phrase: str = ""
    value_phrases: dict[str, str] = field(default_factory=dict)

    def text_phrase(self) -> str:
        return self.phrase or self.name.replace("_", " ").lower()

    def phrase_for(self, value: object) -> str:
        return self.value_phrases.get(str(value), str(value))


@dataclass(frozen=True)
class ThemeSpec:
    """Blueprint for one article domain."""

    name: str
    table_name: str
    title: str
    entity_noun: str  # "suspensions", "respondents", ...
    columns: tuple[ColumnSpec, ...]
    row_range: tuple[int, int] = (40, 200)
    #: Columns claims aggregate over (numeric column names; "" means '*').
    aggregation_targets: tuple[str, ...] = ("",)
    #: Columns claims restrict (category/year column names), most
    #: thematic first — documents concentrate on the leading ones.
    predicate_targets: tuple[str, ...] = ()
    #: Extra filler columns to widen the schema (Figure 8 scale).
    filler_columns: int = 0

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise CorpusError(f"theme {self.name!r} has no column {name!r}")


@dataclass
class GroundTruthClaim:
    """One generated claim with its hand-checkable ground truth."""

    sql: str
    query: SimpleAggregateQuery
    true_result: float
    claimed_value: float
    claimed_text: str
    is_correct: bool
    #: How the predicate context was conveyed: "sentence", "headline",
    #: or "paragraph" (difficulty marker; drives Figure 11 shape).
    context_mode: str = "sentence"


@dataclass
class TestCase:
    """A generated article plus its database and ground truth."""

    case_id: str
    theme_name: str
    html: str
    database: Database
    ground_truth: list[GroundTruthClaim]
    data_dictionary: dict[str, str] | None = None

    @cached_property
    def document(self) -> Document:
        return parse_html(self.html)

    @cached_property
    def claims(self) -> list[Claim]:
        """Detected claims, aligned 1:1 with ground truth."""
        claims = detect_claims(self.document)
        if len(claims) != len(self.ground_truth):
            raise CorpusError(
                f"case {self.case_id}: detected {len(claims)} claims but "
                f"generated {len(self.ground_truth)}"
            )
        for claim, truth in zip(claims, self.ground_truth):
            if abs(claim.claimed_value - truth.claimed_value) > 1e-9:
                raise CorpusError(
                    f"case {self.case_id}: claim value {claim.claimed_value} "
                    f"!= ground truth {truth.claimed_value}"
                )
        return claims

    @property
    def erroneous_count(self) -> int:
        return sum(1 for truth in self.ground_truth if not truth.is_correct)
