"""Unit tests for claim distributions and the EM loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import AggregateFunction, QueryEngine, parse_query
from repro.fragments import FragmentIndex, extract_fragments
from repro.matching import keyword_match
from repro.model import (
    EmConfig,
    Priors,
    build_candidates,
    compute_distribution,
    query_and_learn,
)
from repro.text import detect_claims, parse_html
from tests.conftest import outcome_from

PAPER_HTML = """
<title>The NFL's Uneven History Of Punishing Domestic Violence</title>
<h1>Lifetime bans</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"""


# Module-scoped fixtures cannot use the function-scoped nfl_db fixture;
# rebuild the database here instead.
@pytest.fixture(scope="module")
def module_db():
    from tests.conftest import NFL_ROWS
    from repro.db import Column, ColumnType, Database, Table

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
    return Database("nfl", [table])


@pytest.fixture(scope="module")
def pipeline(module_db):
    catalog = extract_fragments(module_db)
    index = FragmentIndex(catalog)
    claims = detect_claims(parse_html(PAPER_HTML))
    scores = keyword_match(claims, index)
    spaces = {c: build_candidates(c, scores[c]) for c in claims}
    engine = QueryEngine(module_db)
    return module_db, catalog, claims, spaces, engine


class TestComputeDistribution:
    def test_probabilities_sum_to_one(self, pipeline):
        _, catalog, claims, spaces, _ = pipeline
        space = spaces[claims[0]]
        distribution = compute_distribution(space, Priors.uniform(catalog))
        assert distribution.probabilities.sum() == pytest.approx(1.0)

    def test_evaluation_boosts_matching_candidates(self, pipeline):
        db, catalog, claims, spaces, engine = pipeline
        claim_three = next(c for c in claims if c.claimed_value == 3)
        space = spaces[claim_three]
        results = engine.evaluate(space.queries)
        outcome = outcome_from(space, results)
        without = compute_distribution(space, None, None)
        with_eval = compute_distribution(space, None, outcome)
        truth = parse_query(
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
            "AND Category = 'substance abuse, repeated offense'",
            db,
        )
        rank_without = without.rank_of(truth)
        rank_with = with_eval.rank_of(truth)
        assert rank_with is not None and rank_without is not None
        assert rank_with < rank_without

    def test_unevaluated_candidates_get_zero_mass(self, pipeline):
        _, _, claims, spaces, engine = pipeline
        space = spaces[claims[0]]
        # Evaluate only the first 10 candidates.
        results = engine.evaluate(space.queries[:10])
        outcome = outcome_from(space, results)
        distribution = compute_distribution(space, None, outcome)
        assert distribution.probabilities[10:].sum() == pytest.approx(0.0)

    def test_priors_shift_distribution(self, pipeline):
        _, catalog, claims, spaces, _ = pipeline
        space = spaces[claims[0]]
        uniform = Priors.uniform(catalog)
        count_heavy = uniform.update_from(
            [q for q in space.queries if q.aggregate.function is AggregateFunction.COUNT][:5]
        )
        base = compute_distribution(space, uniform)
        shifted = compute_distribution(space, count_heavy)
        top = shifted.top_query()
        assert top is not None
        assert not np.allclose(base.probabilities, shifted.probabilities)

    def test_top_queries_sorted(self, pipeline):
        _, catalog, claims, spaces, _ = pipeline
        distribution = compute_distribution(
            spaces[claims[0]], Priors.uniform(catalog)
        )
        top = distribution.top_queries(10)
        probabilities = [p for _, p in top]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_probability_correct_between_0_and_1(self, pipeline):
        _, catalog, claims, spaces, engine = pipeline
        space = spaces[claims[0]]
        results = engine.evaluate(space.queries)
        outcome = outcome_from(space, results)
        distribution = compute_distribution(
            space, Priors.uniform(catalog), outcome
        )
        assert 0.0 <= distribution.probability_correct() <= 1.0


class TestQueryAndLearn:
    def test_paper_example_resolves(self, pipeline):
        db, catalog, claims, spaces, engine = pipeline
        result = query_and_learn(spaces, catalog, engine)
        claim_four = next(c for c in claims if c.claimed_value == 4)
        top = result.distributions[claim_four].top_query()
        truth = parse_query(
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'", db
        )
        assert top == truth

    def test_priors_learn_document_theme(self, pipeline):
        db, catalog, claims, spaces, engine = pipeline
        result = query_and_learn(spaces, catalog, engine)
        priors = result.priors
        assert priors is not None
        # All claims are counts: Count prior should dominate.
        assert priors.functions[AggregateFunction.COUNT] == max(
            priors.functions.values()
        )

    def test_ablation_no_evaluations(self, pipeline):
        _, catalog, claims, spaces, engine = pipeline
        result = query_and_learn(
            spaces, catalog, engine, EmConfig(use_evaluations=False)
        )
        for distribution in result.distributions.values():
            assert distribution.outcome is None

    def test_ablation_no_priors_single_iteration(self, pipeline):
        _, catalog, claims, spaces, engine = pipeline
        result = query_and_learn(
            spaces, catalog, engine, EmConfig(use_priors=False)
        )
        assert result.iterations == 1
        assert result.priors is None

    def test_full_model_at_least_as_good_as_keyword_only(self, pipeline):
        db, catalog, claims, spaces, engine = pipeline
        truths = {
            4: "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'",
            3: "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
            "AND Category = 'substance abuse, repeated offense'",
            1: "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
            "AND Category = 'gambling'",
        }
        full = query_and_learn(spaces, catalog, engine)
        keyword_only = query_and_learn(
            spaces,
            catalog,
            engine,
            EmConfig(use_priors=False, use_evaluations=False),
        )

        def hits(result, k):
            total = 0
            for claim in claims:
                truth = parse_query(truths[int(claim.claimed_value)], db)
                rank = result.distributions[claim].rank_of(truth)
                if rank is not None and rank <= k:
                    total += 1
            return total

        assert hits(full, 5) >= hits(keyword_only, 5)
        # Evaluation disambiguates: the exact ground truth reaches the
        # top-5 for most claims (top-1 may prefer a simpler query whose
        # result coincides, as in the paper's 58% top-1 coverage).
        assert hits(full, 1) >= 1
        assert hits(full, 5) >= 2

    def test_mstep_ranks_each_claim_once_per_iteration(self, pipeline, monkeypatch):
        from repro.model.probability import ClaimDistribution

        calls = []
        top_query = ClaimDistribution.top_query
        monkeypatch.setattr(
            ClaimDistribution,
            "top_query",
            lambda self: calls.append(self) or top_query(self),
        )
        _, catalog, _, spaces, engine = pipeline
        result = query_and_learn(spaces, catalog, engine)
        assert len(calls) == result.iterations * len(spaces)

    def test_iterations_bounded(self, pipeline):
        _, catalog, _, spaces, engine = pipeline
        result = query_and_learn(
            spaces, catalog, engine, EmConfig(max_iterations=3)
        )
        assert 1 <= result.iterations <= 3

    def test_scope_budget_limits_evaluations(self, pipeline):
        from repro.evalexec import ScopeConfig

        _, catalog, claims, spaces, engine = pipeline
        config = EmConfig(scope=ScopeConfig(max_evaluations_per_claim=50))
        result = query_and_learn(spaces, catalog, engine, config)
        for distribution in result.distributions.values():
            if distribution.outcome is not None:
                assert distribution.outcome.evaluated.sum() <= 50 * 3


def reference_outcome(space, results, scoped=None):
    """The pre-vectorization per-candidate loop, kept as a test oracle."""
    from repro.nlp.numbers import rounds_to

    claimed = space.claim.claimed_value
    n = len(space)
    evaluated = np.zeros(n, dtype=bool)
    matches = np.zeros(n, dtype=bool)
    missing = object()
    for i, query in enumerate(space.queries):
        if scoped is not None and query not in scoped:
            continue
        value = results.get(query, missing)
        if value is missing:
            continue
        evaluated[i] = True
        matches[i] = rounds_to(value, claimed)
    return evaluated, matches


class TestOutcomeMatchesPerCandidateLoop:
    """``from_value_ids`` (near-filter, then ``rounds_to`` per distinct
    value) must match checking every candidate."""

    def _assert_matches_reference(self, space, results, scoped=None):
        outcome = outcome_from(space, results, scoped)
        evaluated, matches = reference_outcome(space, results, scoped)
        assert np.array_equal(outcome.evaluated, evaluated)
        assert np.array_equal(outcome.matches, matches)

    def test_full_pool(self, pipeline):
        _, _, claims, spaces, engine = pipeline
        for claim in claims:
            space = spaces[claim]
            results = engine.evaluate(space.queries)
            self._assert_matches_reference(space, results)

    def test_partial_pool_and_scoped_subset(self, pipeline):
        _, _, claims, spaces, engine = pipeline
        space = spaces[claims[0]]
        results = engine.evaluate(space.queries[::3])
        self._assert_matches_reference(space, results)
        scoped = set(space.queries[::5]) | {space.queries[1]}
        self._assert_matches_reference(space, results, scoped)

    def test_scoped_query_outside_space_ignored(self, pipeline):
        db, _, claims, spaces, engine = pipeline
        space = spaces[claims[0]]
        foreign = parse_query(
            "SELECT Sum(Year) FROM nflsuspensions WHERE Team = 'BAL'", db
        )
        results = dict(engine.evaluate(space.queries[:20]))
        results[foreign] = 123.0
        self._assert_matches_reference(space, results, set(space.queries[:20]) | {foreign})

    def test_foreign_query_has_no_result(self, pipeline):
        db, _, claims, spaces, engine = pipeline
        space = spaces[claims[0]]
        outcome = outcome_from(space, engine.evaluate(space.queries))
        foreign = parse_query(
            "SELECT Sum(Year) FROM nflsuspensions WHERE Team = 'BAL'", db
        )
        assert not outcome.is_evaluated(space, foreign)
        assert outcome.result_for(space, foreign) is None
        own = space.query_at(3)
        assert outcome.is_evaluated(space, own)
        assert outcome.result_for(space, own) == outcome.result_at(3)

    def test_odd_values(self, pipeline):
        _, _, claims, spaces, _ = pipeline
        space = spaces[claims[0]]
        values = [None, float("nan"), 4, 4.0, -1, float("inf"), 3.9999]
        results = {
            query: values[i % len(values)]
            for i, query in enumerate(space.queries)
        }
        self._assert_matches_reference(space, results)

    def test_empty_results(self, pipeline):
        _, _, claims, spaces, _ = pipeline
        space = spaces[claims[0]]
        self._assert_matches_reference(space, {})
        self._assert_matches_reference(space, {}, set())
