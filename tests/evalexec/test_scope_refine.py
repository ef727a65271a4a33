"""Unit tests for PickScope (``scope_mask``) and RefineByEval."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import Column, ColumnType, Database, QueryEngine, Table
from repro.evalexec import ScopeConfig, refine_by_eval_space, scope_mask
from repro.fragments import FragmentIndex, extract_fragments
from repro.matching import keyword_match
from repro.model import build_candidates, compute_distribution
from repro.text import Document, detect_claims

from tests.conftest import NFL_ROWS


@pytest.fixture(scope="module")
def setup():
    table = Table(
        "nflsuspensions",
        [
            Column("Name"),
            Column("Team"),
            Column("Games"),
            Column("Category"),
            Column("Year", ColumnType.NUMERIC),
        ],
        NFL_ROWS,
    )
    database = Database("nfl", [table])
    document = Document.from_plain_text(
        "bans",
        [
            "There were 4 suspensions for gambling or abuse in the data.",
            "The data lists 9 suspensions overall.",
        ],
    )
    claims = detect_claims(document)
    index = FragmentIndex(extract_fragments(database))
    scores = keyword_match(claims, index)
    spaces = {c: build_candidates(c, scores[c]) for c in claims}
    return database, claims, spaces


class TestScopeMask:
    def test_full_scope_by_default(self, setup):
        _, claims, spaces = setup
        space = spaces[claims[0]]
        mask = scope_mask(space, None, ScopeConfig())
        assert mask.dtype == bool and len(mask) == len(space)
        assert mask.all()

    def test_budget_limits(self, setup):
        _, claims, spaces = setup
        space = spaces[claims[0]]
        mask = scope_mask(space, None, ScopeConfig(max_evaluations_per_claim=10))
        # Without scores: the first ``budget`` candidates in space order.
        assert np.flatnonzero(mask).tolist() == list(range(10))

    def test_budget_prefers_likely_candidates(self, setup):
        _, claims, spaces = setup
        space = spaces[claims[0]]
        distribution = compute_distribution(space)
        mask = scope_mask(
            space,
            distribution.log_scores,
            ScopeConfig(max_evaluations_per_claim=5),
        )
        assert set(np.flatnonzero(mask).tolist()) == set(
            distribution.top_positions(5)
        )

    def test_ties_keep_space_order(self, setup):
        _, claims, spaces = setup
        space = spaces[claims[0]]
        scores = np.zeros(len(space))
        scores[7] = 1.0
        mask = scope_mask(space, scores, ScopeConfig(max_evaluations_per_claim=4))
        assert np.flatnonzero(mask).tolist() == [0, 1, 2, 7]

    def test_budget_larger_than_space(self, setup):
        _, claims, spaces = setup
        space = spaces[claims[0]]
        mask = scope_mask(
            space, None, ScopeConfig(max_evaluations_per_claim=10**9)
        )
        assert mask.all() and len(mask) == len(space)


class TestRefineByEval:
    def test_outcomes_cover_all_claims(self, setup):
        database, claims, spaces = setup
        engine = QueryEngine(database)
        outcomes = refine_by_eval_space(spaces, None, engine)
        assert set(outcomes) == set(spaces)
        for claim, outcome in outcomes.items():
            assert outcome.evaluated.all()

    def test_carried_results_avoid_reevaluation(self, setup):
        database, claims, spaces = setup
        engine = QueryEngine(database)
        carried = {}
        refine_by_eval_space(spaces, None, engine, carried=carried)
        assert set(carried) == set(spaces)
        first_requested = engine.stats.queries_requested
        assert first_requested == sum(len(space) for space in spaces.values())
        refine_by_eval_space(spaces, None, engine, carried=carried)
        assert engine.stats.queries_requested == first_requested

    def test_budget_restricts_evaluated(self, setup):
        database, claims, spaces = setup
        engine = QueryEngine(database)
        preliminary = {
            claim: compute_distribution(space) for claim, space in spaces.items()
        }
        outcomes = refine_by_eval_space(
            spaces,
            preliminary,
            engine,
            ScopeConfig(max_evaluations_per_claim=10),
        )
        for outcome in outcomes.values():
            assert int(outcome.evaluated.sum()) <= 10

    def test_matches_only_on_evaluated(self, setup):
        database, claims, spaces = setup
        engine = QueryEngine(database)
        preliminary = {
            claim: compute_distribution(space) for claim, space in spaces.items()
        }
        outcomes = refine_by_eval_space(
            spaces,
            preliminary,
            engine,
            ScopeConfig(max_evaluations_per_claim=10),
        )
        for outcome in outcomes.values():
            assert not np.any(outcome.matches & ~outcome.evaluated)

    def test_some_claim_matches_ground_result(self, setup):
        database, claims, spaces = setup
        engine = QueryEngine(database)
        outcomes = refine_by_eval_space(spaces, None, engine)
        # The '9 suspensions overall' claim matches Count(*) = 9.
        claim_nine = next(c for c in claims if c.claimed_value == 9)
        assert outcomes[claim_nine].matches.any()
