"""The oracle helper's clauses, each on an input where NAIVE × row and a
cube route really differ, and the differences it must not absorb."""

from __future__ import annotations

import pytest

from repro.db import (
    Column,
    ColumnRef,
    ColumnType,
    Database,
    EngineConfig,
    Predicate,
    QueryEngine,
    Table,
    parse_query,
)

from tests.db.oracle import (
    FLOAT64_EXTREMES,
    ROLLUP_ADDS_SUBTOTALS,
    SUM_IS_FLOAT,
    assert_bit_equal,
    assert_matches_oracle,
    clauses_for,
    oracle_values,
    rolled_up_queries,
)

CUBE_BACKENDS = ("columnar", "sqlite")
AMOUNT = ColumnRef("facts", "amount")


def facts(rows) -> Database:
    return Database(
        "facts",
        [Table("facts", [Column("category"), Column("amount", ColumnType.NUMERIC)], rows)],
    )


def both_routes(database, queries, backend):
    """The oracle's values and one batch of ``backend``'s cube engine."""
    engine = QueryEngine(database, EngineConfig(backend=backend))
    try:
        return oracle_values(database, queries), engine.evaluate(queries)
    finally:
        engine.close()


class TestClauses:
    @pytest.mark.parametrize("backend", CUBE_BACKENDS)
    def test_sum_over_integers_is_a_float_in_every_cube(self, backend):
        database = facts([("a", 1), ("a", 2)])
        query = parse_query("SELECT Sum(amount) FROM facts", database)
        naive, cube = both_routes(database, [query], backend)
        assert type(naive[query]) is int and naive[query] == 3
        assert type(cube[query]) is float and cube[query] == 3.0
        assert SUM_IS_FLOAT in clauses_for(query.aggregate.function, backend, 3)
        assert_matches_oracle(query, naive[query], cube[query], backend)
        with pytest.raises(AssertionError):
            assert_bit_equal(naive[query], cube[query])

    def test_columnar_extremes_are_floats_and_not_the_earliest_zero(self):
        database = facts([("a", 1), ("a", 2), ("b", 0.0), ("b", -0.0)])
        queries = [
            parse_query(sql, database)
            for sql in (
                "SELECT Min(amount) FROM facts WHERE category = 'a'",
                "SELECT Max(amount) FROM facts WHERE category = 'b'",
            )
        ]
        naive, cube = both_routes(database, queries, "columnar")
        assert [naive[q] for q in queries] == [1, 0.0]
        assert type(naive[queries[0]]) is int
        assert type(cube[queries[0]]) is float
        # Equal extremes: the executor keeps the earliest row's 0.0.
        assert repr(naive[queries[1]]) == "0.0" and repr(cube[queries[1]]) == "-0.0"
        for query in queries:
            assert FLOAT64_EXTREMES in clauses_for(
                query.aggregate.function, "columnar", naive[query]
            )
            assert_matches_oracle(query, naive[query], cube[query], "columnar")
        # SQLite keeps each cell's own number and the earliest row: exact.
        naive, cube = both_routes(database, queries, "sqlite")
        for query in queries:
            assert_bit_equal(naive[query], cube[query])

    def test_rolled_up_float_sum_adds_group_subtotals(self):
        database = facts(
            [("a", 0.1), ("b", 0.2), ("a", 0.3), ("a", 0.7), ("b", 1.1), ("b", 2.2)]
        )
        one_group, rolled_up = (
            parse_query(sql, database)
            for sql in (
                "SELECT Sum(amount) FROM facts WHERE category = 'a'",
                "SELECT Sum(amount) FROM facts",
            )
        )
        # One batch: the unfiltered query reads the ALL cell of a cube
        # over category.
        naive, cube = both_routes(database, [one_group, rolled_up], "columnar")
        assert repr(naive[rolled_up]) == "4.6000000000000005"
        assert repr(cube[rolled_up]) == "4.6"
        assert_bit_equal(naive[one_group], cube[one_group])
        assert rolled_up_queries(database, [one_group, rolled_up]) == {rolled_up}
        assert ROLLUP_ADDS_SUBTOTALS in clauses_for(
            rolled_up.aggregate.function, "columnar", naive[rolled_up], True
        )
        assert ROLLUP_ADDS_SUBTOTALS not in clauses_for(
            one_group.aggregate.function, "columnar", naive[one_group]
        )
        assert_matches_oracle(
            rolled_up, naive[rolled_up], cube[rolled_up], "columnar", rolled_up=True
        )
        # On its own engine the unfiltered query reads a one-group cube.
        naive, alone = both_routes(database, [rolled_up], "columnar")
        assert_bit_equal(naive[rolled_up], alone[rolled_up])
        # Each SQL arm rescans its rows in order: exact.
        naive, cube = both_routes(database, [one_group, rolled_up], "sqlite")
        assert_bit_equal(naive[rolled_up], cube[rolled_up])

    @pytest.mark.parametrize("backend", CUBE_BACKENDS)
    def test_numeric_predicate_matches_by_number_only_on_naive(self, backend):
        """Not absorbed: the randomized suites keep such inputs out."""
        from repro.db import AggregateFunction, AggregateSpec, STAR, SimpleAggregateQuery

        database = facts([("a", 0), ("a", 0.0), ("a", -0.0), ("a", "0")])
        query = SimpleAggregateQuery(
            AggregateSpec(AggregateFunction.COUNT, STAR), (Predicate(AMOUNT, 0),)
        )
        naive, cube = both_routes(database, [query], backend)
        assert naive[query] == 4  # 0.0 and -0.0 equal 0 as numbers
        assert cube[query] == 2  # only 0 and "0" normalize to "0"
        with pytest.raises(AssertionError):
            assert_matches_oracle(query, naive[query], cube[query], backend)


class TestOutsideTheClauses:
    def test_count_must_keep_its_type(self):
        with pytest.raises(AssertionError):
            assert_matches_oracle(
                parse_query("SELECT Count(*) FROM facts", facts([])), 3, 3.0, "columnar"
            )

    def test_sql_extremes_must_keep_their_type(self):
        query = parse_query("SELECT Min(amount) FROM facts", facts([("a", 1)]))
        assert_matches_oracle(query, 1, 1.0, "columnar")
        with pytest.raises(AssertionError):
            assert_matches_oracle(query, 1, 1.0, "sqlite")

    def test_sums_must_agree_beyond_rounding(self):
        query = parse_query("SELECT Sum(amount) FROM facts", facts([("a", 1.5)]))
        assert_matches_oracle(
            query, 4.6000000000000005, 4.6, "columnar", rolled_up=True
        )
        with pytest.raises(AssertionError):  # a one-group cell adds in row order
            assert_matches_oracle(query, 4.6000000000000005, 4.6, "columnar")
        with pytest.raises(AssertionError):
            assert_matches_oracle(
                query, 4.6000000000000005, 4.6, "sqlite", rolled_up=True
            )
        with pytest.raises(AssertionError):
            assert_matches_oracle(query, 4.6, 4.7, "columnar", rolled_up=True)
        with pytest.raises(AssertionError):
            assert_matches_oracle(query, None, 0.0, "columnar", rolled_up=True)
