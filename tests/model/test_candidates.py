"""Unit tests for candidate-space construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import AggregateFunction
from repro.fragments import FragmentIndex, extract_fragments
from repro.matching import claim_keywords
from repro.model import CandidateConfig, build_candidates
from repro.text import Document, detect_claims


@pytest.fixture()
def claim_and_scores(nfl_db):
    document = Document.from_plain_text(
        "NFL bans",
        ["Three suspensions were for repeated substance abuse in total."],
    )
    claim = detect_claims(document)[0]
    index = FragmentIndex(extract_fragments(nfl_db))
    scores = index.retrieve(claim_keywords(claim))
    return claim, scores


class TestBuildCandidates:
    def test_space_nonempty(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        assert len(space) > 100

    def test_all_functions_present(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        functions = {f.function for f in space.functions}
        assert len(functions) == 8

    def test_empty_subset_included(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        assert () in space.subsets
        assert any(len(q.predicates) == 0 for q in space.queries)

    def test_max_predicates_respected(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores, CandidateConfig(max_predicates=1))
        assert all(len(q.all_predicates) <= 1 for q in space.queries)

    def test_distinct_columns_per_subset(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        for subset in space.subsets:
            columns = [f.column for f in subset]
            assert len(set(columns)) == len(columns)

    def test_max_subsets_cap(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores, CandidateConfig(max_subsets=10))
        assert len(space.subsets) <= 10
        assert () in space.subsets

    def test_conditional_probability_needs_two_predicates(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        for query in space.queries:
            if (
                query.aggregate.function
                is AggregateFunction.CONDITIONAL_PROBABILITY
            ):
                assert len(query.all_predicates) >= 2
                assert query.condition is not None

    def test_conditional_probability_toggle(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(
            claim,
            scores,
            CandidateConfig(include_conditional_probability=False),
        )
        functions = {q.aggregate.function for q in space.queries}
        assert AggregateFunction.CONDITIONAL_PROBABILITY not in functions

    def test_no_numeric_aggregate_on_star(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        for query in space.queries:
            if query.aggregate.column.is_star:
                assert not query.aggregate.function.needs_numeric_column

    def test_index_arrays_aligned(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        n = len(space)
        assert len(space.fn_index) == n
        assert len(space.col_index) == n
        assert len(space.subset_index) == n
        assert space.fn_index.max() < len(space.functions)
        assert space.col_index.max() < len(space.columns)
        assert space.subset_index.max() < len(space.subsets)

    def test_keyword_logs_are_normalized(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        assert np.exp(space.fn_keyword_log).sum() == pytest.approx(1.0)
        assert np.exp(space.col_keyword_log).sum() == pytest.approx(1.0)

    def test_queries_unique(self, claim_and_scores):
        claim, scores = claim_and_scores
        space = build_candidates(claim, scores)
        assert len(set(space.queries)) == len(space.queries)
