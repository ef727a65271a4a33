"""Bit-identity of the factorized evaluation route against its references.

The production route is ``refine_by_eval_space``: ``QueryEngine.
evaluate_spaces`` (cell gather) + ``EvaluationOutcome.from_value_ids``.
Two references hold it in place. The list entry point — materialize the
scoped candidates with ``query_at``, ``QueryEngine.evaluate`` them on an
engine of the same mode and backend, check every value with ``rounds_to``
— must give the same per-candidate values, evaluated/match vectors and
physical-work stats. The same route on a NAIVE engine over the row
adapter (one physical query per candidate: what the shadow auditor runs)
must give the same values (under the named clauses of
``tests/db/oracle.py``), probabilities and verdicts. Both across every
engine (the oracle and the cube on the in-memory and the SQL backend),
full and budgeted scopes, ratio and conditional-probability candidates,
and empty-group cells.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.db.gather as gather
from repro.db import Column, ColumnType, Database, EngineConfig, QueryEngine, Table
from repro.db.engine import EngineStats
from repro.db.gather import SpaceResults
from repro.evalexec import ScopeConfig, refine_by_eval_space
from repro.fragments import FragmentIndex, extract_fragments
from repro.matching import keyword_match
from repro.model import EmConfig, build_candidates, compute_distribution, query_and_learn
from repro.model.candidates import CandidateConfig
from repro.model.probability import EvaluationOutcome
from repro.core.verdict import make_verdict
from repro.fragments.indexer import RelevanceScores
from repro.nlp.numbers import rounds_to
from repro.text import Document, detect_claims

from tests.conftest import NFL_ROWS
from tests.db.oracle import ORACLE, assert_matches_oracle, rolled_up_queries
from tests.db.strategies import nullheavy_databases, small_databases

#: The oracle (one physical query per candidate, no cube, no cache,
#: row-wise executor) and the cube route on an in-memory and a SQL backend.
BACKENDS = ["row", "columnar", "sqlite"]

#: EngineStats fields that must match between ``evaluate_spaces`` and the
#: list reference. Excluded: ``query_seconds`` (wall clock),
#: ``gathered_candidates`` (only ``evaluate_spaces`` counts them), and
#: ``queries_requested`` (``evaluate_spaces`` counts logical candidate
#: evaluations before cross-claim dedup).
COMPARABLE_STATS = (
    "physical_queries",
    "cube_queries",
    "cache_hits",
    "cache_misses",
    "disk_hits",
    "disk_misses",
    "rows_scanned",
)


def make_claim(value):
    document = Document.from_plain_text(
        "T", [f"The data shows {value} interesting things."]
    )
    claims = detect_claims(document)
    assert claims, value
    return claims[0]


def same_value(expected, actual):
    # Same value and same Python type: 3 is not 3.0, 0 is not None.
    return expected == actual and type(expected) is type(actual)


def reference_scope(space, log_scores, budget):
    """PickScope written out: the ``budget`` best candidates by score."""
    mask = np.zeros(len(space), dtype=bool)
    if budget is None or budget >= len(space):
        mask[:] = True
    else:
        mask[np.argsort(-log_scores, kind="stable")[:budget]] = True
    return mask


def assert_matches_list_reference(outcomes, spaces, masks, engine):
    """``outcomes`` against one ``engine.evaluate`` batch of the scoped
    candidates of every claim plus a ``rounds_to`` check per candidate."""
    scoped = {
        claim: [
            (position, space.query_at(position))
            for position in np.flatnonzero(masks[claim]).tolist()
        ]
        for claim, space in spaces.items()
    }
    values = engine.evaluate(
        [query for pairs in scoped.values() for _, query in pairs]
    )
    for claim, pairs in scoped.items():
        outcome = outcomes[claim]
        assert np.array_equal(outcome.evaluated, masks[claim])
        matches = np.zeros(len(spaces[claim]), dtype=bool)
        for position, query in pairs:
            expected = values[query]
            actual = outcome.result_at(position)
            assert same_value(expected, actual), (position, expected, actual)
            matches[position] = rounds_to(expected, claim.claimed_value)
        assert np.array_equal(outcome.matches, matches)


def evaluated_queries(outcome, space) -> list:
    return [
        space.query_at(position)
        for position in np.flatnonzero(outcome.evaluated).tolist()
    ]


def assert_same_outcome(oracle, spacey, space, backend, rolled_up):
    """``rolled_up``: the candidates of the batch read from ``ALL`` cells
    (:func:`~tests.db.oracle.rolled_up_queries`)."""
    assert np.array_equal(oracle.evaluated, spacey.evaluated)
    assert np.array_equal(oracle.matches, spacey.matches)
    for position in np.flatnonzero(spacey.evaluated).tolist():
        query = space.query_at(position)
        assert_matches_oracle(
            query,
            oracle.result_at(position),
            spacey.result_at(position),
            backend,
            f"candidate {position}",
            query in rolled_up,
        )


def assert_same_verdict(claim, d_oracle, d_new, backend, rolled_up=frozenset()):
    assert np.array_equal(d_oracle.probabilities, d_new.probabilities)
    v_oracle = make_verdict(claim, d_oracle)
    v_new = make_verdict(claim, d_new)
    assert v_oracle.status is v_new.status
    assert v_oracle.top_query == v_new.top_query
    if v_oracle.top_query is not None:
        assert_matches_oracle(
            v_oracle.top_query, v_oracle.top_result, v_new.top_result, backend,
            rolled_up=v_oracle.top_query in rolled_up,
        )
    assert v_oracle.probability_correct == v_new.probability_correct


def assert_same_stats(old: EngineStats, new: EngineStats, names=COMPARABLE_STATS):
    for name in names:
        assert getattr(old, name) == getattr(new, name), name


@st.composite
def random_scores(draw, catalog) -> RelevanceScores:
    """Random relevance scores over a fragment catalog.

    Always keeps every function fragment (so ratio and
    conditional-probability candidates stay in play) and at least one
    column; predicates are a random subsample with random scores.
    """
    score = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
    functions = {fragment: draw(score) for fragment in catalog.functions}
    n_columns = draw(st.integers(min_value=1, max_value=len(catalog.columns)))
    columns = {fragment: draw(score) for fragment in catalog.columns[:n_columns]}
    predicate_pool = list(catalog.predicates)
    n_predicates = draw(
        st.integers(min_value=0, max_value=min(len(predicate_pool), 6))
    )
    predicates = {
        fragment: draw(score) for fragment in predicate_pool[:n_predicates]
    }
    return RelevanceScores(functions, columns, predicates)


class TestSpacePathMatchesReferences:
    """Randomized single-claim refinement against both references."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=15, deadline=None)
    @given(database=small_databases() | nullheavy_databases(signed_zeros=False), data=st.data())
    def test_refine_identical(self, backend, database, data):
        catalog = extract_fragments(database)
        claim = make_claim(data.draw(st.sampled_from([1, 3, 4.0, 25, 50.0])))
        scores = data.draw(random_scores(catalog))
        space = build_candidates(claim, scores)
        budget = data.draw(st.none() | st.integers(min_value=1, max_value=30))
        config = ScopeConfig(max_evaluations_per_claim=budget)
        preliminary = None
        if budget is not None:
            preliminary = {claim: compute_distribution(space)}
        spaces = {claim: space}

        config_of_route = EngineConfig(backend=backend)
        engine_new = QueryEngine(database, config_of_route)
        spacey = refine_by_eval_space(spaces, preliminary, engine_new, config)

        # Reference 1: the list entry point, same mode and backend.
        engine_list = QueryEngine(database, config_of_route)
        log_scores = preliminary[claim].log_scores if preliminary else None
        masks = {claim: reference_scope(space, log_scores, budget)}
        assert_matches_list_reference(spacey, spaces, masks, engine_list)
        assert_same_stats(engine_list.stats, engine_new.stats)
        # Single claim, no duplicate candidates: even the logical request
        # count matches between the two entry points.
        assert (
            engine_list.stats.queries_requested
            == engine_new.stats.queries_requested
        )

        # Reference 2: the same route on the NAIVE/row oracle engine.
        oracle = refine_by_eval_space(
            spaces, preliminary, QueryEngine(database, ORACLE), config
        )
        rolled_up = rolled_up_queries(
            database, evaluated_queries(spacey[claim], space)
        )
        assert_same_outcome(oracle[claim], spacey[claim], space, backend, rolled_up)
        assert_same_verdict(
            claim,
            compute_distribution(space, None, oracle[claim]),
            compute_distribution(space, None, spacey[claim]),
            backend,
            rolled_up,
        )
        engine_new.close()
        engine_list.close()


@pytest.fixture(scope="module")
def nfl_pipeline():
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
            "About 44 percent of suspensions were indefinite.",
        ],
    )
    claims = detect_claims(document)
    catalog = extract_fragments(database)
    index = FragmentIndex(catalog)
    scores = keyword_match(claims, index)
    spaces = {c: build_candidates(c, scores[c]) for c in claims}
    return database, catalog, claims, spaces


class TestMultiClaimDocument:
    """Cross-claim batches share cube work exactly as the list reference
    does, and agree with the oracle engine."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_physical_work_identical(self, nfl_pipeline, backend):
        database, _, claims, spaces = nfl_pipeline
        engine_list = QueryEngine(database, EngineConfig(backend=backend))
        engine_new = QueryEngine(database, EngineConfig(backend=backend))
        spacey = refine_by_eval_space(spaces, None, engine_new)
        masks = {
            claim: np.ones(len(space), dtype=bool)
            for claim, space in spaces.items()
        }
        assert_matches_list_reference(spacey, spaces, masks, engine_list)
        assert_same_stats(engine_list.stats, engine_new.stats)
        oracle = refine_by_eval_space(
            spaces, None, QueryEngine(database, ORACLE)
        )
        rolled_up = rolled_up_queries(
            database,
            [
                query
                for claim in claims
                for query in evaluated_queries(spacey[claim], spaces[claim])
            ],
        )
        for claim in claims:
            assert_same_outcome(
                oracle[claim], spacey[claim], spaces[claim], backend, rolled_up
            )

    @pytest.mark.parametrize("budget", [None, 25])
    def test_query_and_learn_identical(self, nfl_pipeline, budget):
        database, catalog, claims, spaces = nfl_pipeline
        config = EmConfig(scope=ScopeConfig(max_evaluations_per_claim=budget))
        result_new = query_and_learn(
            spaces, catalog, QueryEngine(database), config
        )
        result_oracle = query_and_learn(
            spaces, catalog, QueryEngine(database, ORACLE), config
        )
        assert result_new.iterations == result_oracle.iterations
        assert result_new.priors.functions == result_oracle.priors.functions
        assert result_new.priors.columns == result_oracle.priors.columns
        assert (
            result_new.priors.restrictions == result_oracle.priors.restrictions
        )
        for claim in claims:
            assert_same_verdict(
                claim,
                result_oracle.distributions[claim],
                result_new.distributions[claim],
                "columnar",
            )

    def test_carried_results_skip_reevaluation(self, nfl_pipeline):
        database, _, claims, spaces = nfl_pipeline
        engine = QueryEngine(database)
        carried = {}
        refine_by_eval_space(spaces, None, engine, None, carried)
        requested = engine.stats.queries_requested
        gathered = engine.stats.gathered_candidates
        again = refine_by_eval_space(spaces, None, engine, None, carried)
        # Everything was already answered: nothing reaches the engine.
        assert engine.stats.queries_requested == requested
        assert engine.stats.gathered_candidates == gathered
        for claim in claims:
            assert again[claim].evaluated.all()


class TestLazyMaterialization:
    """Evaluation must never build per-candidate query objects."""

    def test_evaluation_leaves_queries_unmaterialized(self, nfl_pipeline):
        database, catalog, claims, spaces_src = nfl_pipeline
        # Fresh spaces: the module fixture may have been materialized by
        # other tests.
        index = FragmentIndex(catalog)
        scores = keyword_match(claims, index)
        spaces = {c: build_candidates(c, scores[c]) for c in claims}
        engine = QueryEngine(database)
        outcomes = refine_by_eval_space(spaces, None, engine)
        for claim, space in spaces.items():
            assert space._queries is None
            distribution = compute_distribution(space, None, outcomes[claim])
            verdict = make_verdict(claim, distribution)
            assert verdict.top_query is not None
            # Verdict generation materializes only the top candidate.
            assert space._queries is None

    def test_query_at_matches_materialized_list(self, nfl_pipeline):
        _, _, claims, spaces = nfl_pipeline
        space = spaces[claims[0]]
        rebuilt = [space.query_at(i) for i in range(len(space))]
        assert rebuilt == space.queries

    def test_position_of_inverts_query_at(self, nfl_pipeline):
        _, catalog, claims, spaces = nfl_pipeline
        index = FragmentIndex(catalog)
        scores = keyword_match(claims, index)
        space = build_candidates(claims[0], scores[claims[0]])
        for position in range(len(space)):
            assert space.position_of(space.query_at(position)) == position
        # Factor lookup, no materialization.
        assert space._queries is None
        # Materializing changes nothing.
        probe = [0, 1, len(space) // 2, len(space) - 1]
        for position in probe:
            assert space.position_of(space.queries[position]) == position

    def test_position_of_foreign_query_is_none(self, nfl_pipeline):
        database, _, claims, spaces = nfl_pipeline
        from repro.db import parse_query

        space = spaces[claims[0]]
        foreign = parse_query(
            "SELECT Sum(Year) FROM nflsuspensions WHERE Name = 'nobody'",
            database,
        )
        assert space.position_of(foreign) is None


class TestConditionalCoverage:
    """Ratio / conditional candidates and empty groups take the gather path."""

    def test_space_contains_ratio_and_conditional(self, nfl_pipeline):
        _, _, claims, spaces = nfl_pipeline
        from repro.db import AggregateFunction

        space = spaces[claims[0]]
        functions = {
            space.functions[fi].function for fi in np.unique(space.fn_index)
        }
        assert AggregateFunction.PERCENTAGE in functions
        assert AggregateFunction.CONDITIONAL_PROBABILITY in functions
        assert (space.cond_k >= 0).any()

    def test_empty_group_cells_answered(self, nfl_pipeline):
        """Candidates over predicate combos with no rows get count 0 /
        NULL, exactly like the oracle."""
        database, _, claims, spaces = nfl_pipeline
        space = spaces[claims[0]]
        engine = QueryEngine(database)
        results = engine.evaluate_space(space)
        oracle = QueryEngine(database).evaluate(space.queries)
        zero_seen = none_seen = False
        for position, query in enumerate(space.queries):
            value = results.value_at(position)
            assert same_value(oracle[query], value)
            if value == 0 and query.predicates:
                zero_seen = True
            if value is None:
                none_seen = True
        assert zero_seen and none_seen


class TestRatioDenominators:
    """Zero and NULL denominators, for Percentage and for every
    conditional-probability (event, condition) pair.

    No database produces a NULL count, so the cases are planted in the
    engine's cached cells; the list reference answering from the same
    cache (``ratio_value`` per candidate) is the oracle.
    """

    @pytest.mark.parametrize("planted", [0, None, 7, 2.5])
    @pytest.mark.parametrize("target", ["all", "conditions"])
    def test_planted_denominators(self, nfl_pipeline, planted, target):
        from repro.db.cube import ALL

        database, _, claims, spaces = nfl_pipeline
        space = spaces[claims[0]]
        engine = QueryEngine(database)
        engine.evaluate_space(space)
        for entry in engine.cache._entries.values():
            for key in list(entry.cells):
                restricted = sum(part is not ALL for part in key)
                if restricted == (0 if target == "all" else 1):
                    entry.cells[key] = planted
        cube_queries = engine.stats.cube_queries

        results = engine.evaluate_space(space)
        oracle = engine.evaluate(space.queries)
        assert engine.stats.cube_queries == cube_queries  # all from cache
        kinds = space.encoding().fn_kind[space.fn_index]
        nulls = {gather.KIND_PERCENTAGE: 0, gather.KIND_CONDITIONAL: 0}
        for position, query in enumerate(space.queries):
            expected = oracle[query]
            actual = results.value_at(position)
            assert same_value(expected, actual), (str(query), expected, actual)
            if actual is None and kinds[position] in nulls:
                nulls[kinds[position]] += 1
            number = results.numbers[position]
            assert (number != number) if actual is None else number == actual
        if planted in (0, None):
            hit = gather.KIND_PERCENTAGE if target == "all" else gather.KIND_CONDITIONAL
            assert nulls[hit] > 0


class TestSpaceResults:
    def test_set_and_read_back(self):
        results = SpaceResults(4)
        assert not results.any_evaluated()
        results.set_value(2, 7.5)
        assert results.any_evaluated()
        assert results.has_value_at(2)
        assert not results.has_value_at(0)
        assert results.value_at(2) == 7.5
        assert results.value_at(0) is None
        mask = np.asarray(results.evaluated_mask())
        assert mask.tolist() == [False, False, True, False]

    def test_from_value_ids_scope_mask(self, nfl_pipeline):
        database, _, claims, spaces = nfl_pipeline
        space = spaces[claims[0]]
        engine = QueryEngine(database)
        results = engine.evaluate_space(space)
        mask = np.zeros(len(space), dtype=bool)
        mask[:10] = True
        outcome = EvaluationOutcome.from_value_ids(space, results, mask)
        assert outcome.evaluated.sum() == 10
        assert not outcome.matches[10:].any()

    def test_engine_stats_fields_cover_gathered(self):
        names = {spec.name for spec in fields(EngineStats)}
        assert "gathered_candidates" in names
