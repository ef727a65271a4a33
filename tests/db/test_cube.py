"""Unit and property tests for the CUBE operator with InOrDefault."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.db import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    CubeQuery,
    STAR,
    execute_query,
)
from repro.db.cube import ALL, MAX_CUBE_DIMENSIONS
from repro.errors import QueryError

from tests.db.oracle import FLOAT64_BACKENDS, assert_matches_oracle, run_cube
from tests.db.strategies import claim_queries, small_databases

GAMES = ColumnRef("nflsuspensions", "Games")
CATEGORY = ColumnRef("nflsuspensions", "Category")
COUNT_STAR = AggregateSpec(AggregateFunction.COUNT, STAR)


def nfl_cube(nfl_db, literals_games=("indef",), literals_cat=("gambling",)):
    dims = tuple(sorted([GAMES, CATEGORY]))
    literal_map = {
        GAMES: frozenset(literals_games),
        CATEGORY: frozenset(literals_cat),
    }
    cube = CubeQuery(
        tables=frozenset({"nflsuspensions"}),
        dimensions=dims,
        literals=tuple((d, literal_map[d]) for d in dims),
        aggregates=(COUNT_STAR,),
    )
    return run_cube(nfl_db, cube)


class TestCubeBasics:
    def test_all_cell_is_total(self, nfl_db):
        result = nfl_cube(nfl_db)
        assert result.value(COUNT_STAR, {}) == 9

    def test_single_dim_cell(self, nfl_db):
        result = nfl_cube(nfl_db)
        assert result.value(COUNT_STAR, {GAMES: "indef"}) == 4

    def test_two_dim_cell(self, nfl_db):
        result = nfl_cube(nfl_db)
        assert (
            result.value(COUNT_STAR, {GAMES: "indef", CATEGORY: "gambling"}) == 1
        )

    def test_uncovered_literal_rejected(self, nfl_db):
        result = nfl_cube(nfl_db)
        with pytest.raises(QueryError):
            result.value(COUNT_STAR, {GAMES: "16"})

    def test_empty_group_count_is_zero(self, nfl_db):
        result = nfl_cube(nfl_db, literals_games=("indef", "99"))
        assert result.value(COUNT_STAR, {GAMES: "99"}) == 0

    def test_rows_scanned(self, nfl_db):
        assert nfl_cube(nfl_db).rows_scanned == 9

    def test_cells_for_spec(self, nfl_db):
        cells = nfl_cube(nfl_db).cells_for(COUNT_STAR)
        assert cells[(ALL, ALL)] == 9

    def test_ratio_aggregate_rejected(self):
        with pytest.raises(QueryError):
            CubeQuery(
                tables=frozenset({"t"}),
                dimensions=(),
                literals=(),
                aggregates=(
                    AggregateSpec(AggregateFunction.PERCENTAGE, STAR),
                ),
            )

    def test_unsorted_dimensions_rejected(self, nfl_db):
        dims = tuple(sorted([GAMES, CATEGORY], reverse=True))
        with pytest.raises(QueryError):
            CubeQuery(
                tables=frozenset({"nflsuspensions"}),
                dimensions=dims,
                literals=tuple((d, frozenset()) for d in dims),
                aggregates=(COUNT_STAR,),
            )

    def test_dimension_limit(self):
        dims = tuple(
            sorted(ColumnRef("t", f"c{i}") for i in range(MAX_CUBE_DIMENSIONS + 1))
        )
        with pytest.raises(QueryError):
            CubeQuery(
                tables=frozenset({"t"}),
                dimensions=dims,
                literals=tuple((d, frozenset()) for d in dims),
                aggregates=(COUNT_STAR,),
            )


class TestCubeAggregates:
    def test_multiple_aggregates_one_pass(self, star_db):
        position = ColumnRef("players", "position")
        salary = ColumnRef("players", "salary")
        specs = (
            AggregateSpec(AggregateFunction.COUNT, ColumnRef("players", "*")),
            AggregateSpec(AggregateFunction.SUM, salary),
            AggregateSpec(AggregateFunction.AVG, salary),
            AggregateSpec(AggregateFunction.MIN, salary),
            AggregateSpec(AggregateFunction.MAX, salary),
            AggregateSpec(AggregateFunction.COUNT_DISTINCT, position),
        )
        cube = CubeQuery(
            tables=frozenset({"players"}),
            dimensions=(position,),
            literals=((position, frozenset({"guard"})),),
            aggregates=specs,
        )
        result = run_cube(star_db, cube)
        guard = {position: "guard"}
        assert result.value(specs[0], guard) == 3
        assert result.value(specs[1], guard) == pytest.approx(365.0)
        assert result.value(specs[2], guard) == pytest.approx(365.0 / 3)
        assert result.value(specs[3], guard) == 95.0
        assert result.value(specs[4], guard) == 150.0
        assert result.value(specs[5], {}) == 3

    def test_sum_of_empty_group_is_null(self, star_db):
        position = ColumnRef("players", "position")
        salary = ColumnRef("players", "salary")
        spec = AggregateSpec(AggregateFunction.SUM, salary)
        cube = CubeQuery(
            tables=frozenset({"players"}),
            dimensions=(position,),
            literals=((position, frozenset({"goalie"})),),
            aggregates=(spec,),
        )
        result = run_cube(star_db, cube)
        assert result.value(spec, {position: "goalie"}) is None


class TestNullAndNonNumericCells:
    """NULL / non-numeric handling across every basis aggregate.

    The ``amount`` column mixes NULLs, blank strings, non-numeric strings,
    and coercible strings; SQL semantics require Count to skip only missing
    cells, CountDistinct to count normalized distinct non-missing cells, and
    the numeric aggregates to be NULL when no cell coerces to a number.
    Parametrized over the in-memory and the SQL cube.
    """

    ROWS = [
        ("alpha", None),
        ("alpha", "  "),
        ("alpha", "n/a"),
        ("beta", None),
        ("beta", "4"),
        ("beta", 6),
        ("beta", "n/a"),
    ]

    def database(self):
        from repro.db import Column, ColumnType, Database, Table

        table = Table(
            "facts",
            [Column("category"), Column("amount", ColumnType.NUMERIC)],
            self.ROWS,
        )
        return Database("mix", [table])

    def result(self, backend):
        database = self.database()
        category = ColumnRef("facts", "category")
        amount = ColumnRef("facts", "amount")
        specs = tuple(
            AggregateSpec(fn, amount)
            for fn in (
                AggregateFunction.COUNT,
                AggregateFunction.COUNT_DISTINCT,
                AggregateFunction.SUM,
                AggregateFunction.AVG,
                AggregateFunction.MIN,
                AggregateFunction.MAX,
            )
        )
        cube = CubeQuery(
            tables=frozenset({"facts"}),
            dimensions=(category,),
            literals=((category, frozenset({"alpha", "beta"})),),
            aggregates=specs,
        )
        return run_cube(database, cube, backend), specs, category

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_count_skips_only_missing(self, backend):
        result, specs, category = self.result(backend)
        # alpha: NULL and blank are missing, 'n/a' is not.
        assert result.value(specs[0], {category: "alpha"}) == 1
        assert result.value(specs[0], {category: "beta"}) == 3

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_count_distinct_normalizes(self, backend):
        result, specs, category = self.result(backend)
        assert result.value(specs[1], {category: "alpha"}) == 1  # 'n/a'
        assert result.value(specs[1], {category: "beta"}) == 3  # '4', 6, 'n/a'
        assert result.value(specs[1], {}) == 3  # 'n/a' shared across groups

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_numeric_aggregates_null_without_numbers(self, backend):
        result, specs, category = self.result(backend)
        for spec in specs[2:]:
            assert result.value(spec, {category: "alpha"}) is None

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_numeric_aggregates_skip_non_numeric(self, backend):
        result, specs, category = self.result(backend)
        beta = {category: "beta"}
        assert result.value(specs[2], beta) == pytest.approx(10.0)  # Sum
        # Avg divides by the numeric count ('n/a' skipped), matching the
        # naive executor so engine modes agree on messy numeric columns.
        assert result.value(specs[3], beta) == pytest.approx(10.0 / 2)
        assert result.value(specs[4], beta) == pytest.approx(4.0)  # Min
        assert result.value(specs[5], beta) == pytest.approx(6.0)  # Max

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_finalizer_keeps_types(self, backend):
        """Both routes end in one finalizer, which coerces nothing: counts
        stay ints, SUM and AVG floats, MIN/MAX the route's number image,
        and numerics over a group without a number are NULL."""
        result, specs, category = self.result(backend)
        keys = {(ALL,), ("alpha",), ("beta",)}
        for spec in specs:
            assert result.cells_for(spec).keys() == keys, spec
        alpha = [result.value(spec, {category: "alpha"}) for spec in specs]
        assert [(type(v), v) for v in alpha] == [(int, 1), (int, 1)] + [
            (type(None), None)
        ] * 4
        beta = [result.value(spec, {category: "beta"}) for spec in specs]
        extreme = float if backend in FLOAT64_BACKENDS else int
        assert [(type(v), v) for v in beta] == [
            (int, 3),
            (int, 3),
            (float, 10.0),
            (float, 5.0),  # divided by the 2 numeric cells, not by 3
            (extreme, 4),
            (extreme, 6),
        ]


@settings(max_examples=60, deadline=None)
@given(database=small_databases(), query=claim_queries())
def test_cube_matches_naive_executor(database, query):
    """Any candidate answered from a cube equals its naive evaluation
    (under the oracle helper's clauses)."""
    if query.aggregate.function.is_ratio:
        # Ratios are served by the engine from counts; tested in test_engine.
        return
    dims = tuple(sorted(query.predicate_columns))
    literal_map = {
        predicate.column: frozenset({predicate.normalized_value})
        for predicate in query.all_predicates
    }
    cube = CubeQuery(
        tables=frozenset({"facts"}),
        dimensions=dims,
        literals=tuple((d, literal_map[d]) for d in dims),
        aggregates=(query.aggregate,),
    )
    result = run_cube(database, cube)
    assignment = {
        predicate.column: predicate.normalized_value
        for predicate in query.all_predicates
    }
    actual = result.value(query.aggregate, assignment)
    assert_matches_oracle(
        query, execute_query(database, query), actual, "columnar", str(query)
    )
