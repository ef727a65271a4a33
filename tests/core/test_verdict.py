"""Unit tests for verdict derivation and markup rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.verdict import VerdictStatus, make_verdict, render_markup
from repro.db import AggregateFunction, AggregateSpec, STAR
from repro.db.query import SimpleAggregateQuery
from repro.model.candidates import CandidateSpace
from repro.model.probability import compute_distribution
from repro.text import Document, detect_claims
from tests.conftest import outcome_from


def make_space(claim, n=1):
    """A minimal candidate space: ``n`` copies of ``COUNT_STAR`` with
    uniform keyword scores."""
    from repro.fragments.fragments import ColumnFragment, FunctionFragment

    space = CandidateSpace(
        claim=claim,
        functions=[FunctionFragment(function=AggregateFunction.COUNT)],
        columns=[ColumnFragment()],
        predicates=[],
        subset_matrix=np.full((1, 0), -1, dtype=np.int32),
        fn_keyword_log=np.zeros(1),
        col_keyword_log=np.zeros(1),
        subset_keyword_log=np.zeros(1),
    )
    space.fn_index = np.zeros(n, dtype=np.int32)
    space.col_index = np.zeros(n, dtype=np.int32)
    space.subset_index = np.zeros(n, dtype=np.int32)
    space.cond_k = np.full(n, -1, dtype=np.int32)
    return space


@pytest.fixture()
def claim():
    document = Document.from_plain_text("T", ["There were 4 bans."])
    return detect_claims(document)[0]


COUNT_STAR = SimpleAggregateQuery(AggregateSpec(AggregateFunction.COUNT, STAR))


class TestMakeVerdict:
    def test_verified_when_top_matches(self, claim):
        space = make_space(claim)
        outcome = outcome_from(space, {COUNT_STAR: 4})
        distribution = compute_distribution(space, None, outcome)
        verdict = make_verdict(claim, distribution)
        assert verdict.status is VerdictStatus.VERIFIED
        assert verdict.top_result == 4

    def test_erroneous_when_top_mismatches(self, claim):
        space = make_space(claim)
        outcome = outcome_from(space, {COUNT_STAR: 9})
        distribution = compute_distribution(space, None, outcome)
        verdict = make_verdict(claim, distribution)
        assert verdict.status is VerdictStatus.ERRONEOUS

    def test_rounding_admissible(self, claim):
        # 3.64 claimed as 4 (1 significant digit): verified.
        space = make_space(claim)
        outcome = outcome_from(space, {COUNT_STAR: 3.64})
        distribution = compute_distribution(space, None, outcome)
        assert make_verdict(claim, distribution).status is VerdictStatus.VERIFIED

    def test_unresolved_without_candidates(self, claim):
        space = make_space(claim, 0)
        distribution = compute_distribution(space, None, None)
        verdict = make_verdict(claim, distribution)
        assert verdict.status is VerdictStatus.UNRESOLVED
        assert verdict.status.flagged

    def test_unresolved_without_evaluations(self, claim):
        space = make_space(claim)
        distribution = compute_distribution(space, None, None)
        verdict = make_verdict(claim, distribution)
        assert verdict.status is VerdictStatus.UNRESOLVED

    def test_hover_text(self, claim):
        space = make_space(claim)
        outcome = outcome_from(space, {COUNT_STAR: 4})
        verdict = make_verdict(
            claim, compute_distribution(space, None, outcome)
        )
        assert verdict.hover_text == "the number of rows = 4"


class TestRenderMarkup:
    def _verdict(self, claim, result):
        space = make_space(claim)
        outcome = outcome_from(space, {COUNT_STAR: result})
        return make_verdict(claim, compute_distribution(space, None, outcome))

    def test_ok_marker(self, claim):
        markup = render_markup([self._verdict(claim, 4)])
        assert markup.startswith("[OK 4]")

    def test_err_marker_shows_actual(self, claim):
        markup = render_markup([self._verdict(claim, 9)])
        assert markup.startswith("[ERR 4 -> 9]")

    def test_unresolved_marker(self, claim):
        space = make_space(claim, 0)
        verdict = make_verdict(claim, compute_distribution(space, None, None))
        assert render_markup([verdict]).startswith("[? 4]")

    def test_one_line_per_claim(self, claim):
        verdicts = [self._verdict(claim, 4), self._verdict(claim, 9)]
        assert render_markup(verdicts).count("\n") == 1
