"""Unit and property tests for the merging/caching query engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    ColumnType,
    Database,
    EngineConfig,
    QueryEngine,
    Table,
    parse_query,
)
from repro.db.cache import ResultCache
from repro.db.cube import MAX_CUBE_DIMENSIONS
from repro.errors import QueryError

from tests.db.oracle import ORACLE, assert_engine_matches_oracle
from tests.db.strategies import (
    claim_queries,
    conditional_queries,
    small_databases,
)


def queries_for(nfl_db):
    sqls = [
        "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'",
        "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
        "AND Category = 'gambling'",
        "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
        "AND Category = 'substance abuse, repeated offense'",
        "SELECT Percentage(*) FROM nflsuspensions WHERE Games = 'indef'",
        "SELECT Sum(Year) FROM nflsuspensions WHERE Team = 'BAL'",
        "SELECT Count(*) FROM nflsuspensions",
        "SELECT ConditionalProbability(*) FROM nflsuspensions "
        "WHERE Games = 'indef' AND Category = 'gambling'",
    ]
    return [parse_query(sql, nfl_db) for sql in sqls]


class TestModesAgree:
    def test_merged_equals_naive(self, nfl_db):
        assert_engine_matches_oracle(
            nfl_db, queries_for(nfl_db), "columnar", repeat=2
        )

    def test_merged_equals_naive_on_joins(self, star_db):
        sqls = [
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
            "SELECT Count(*) FROM players JOIN teams WHERE city = 'dallas'",
            "SELECT Count(*) FROM players WHERE position = 'guard'",
            "SELECT Avg(goals) FROM players",
        ]
        queries = [parse_query(sql, star_db) for sql in sqls]
        assert_engine_matches_oracle(star_db, queries, "columnar")


class TestSharing:
    def test_queries_merged_into_few_cubes(self, nfl_db):
        engine = QueryEngine(nfl_db)
        engine.evaluate(queries_for(nfl_db))
        # 7 logical queries collapse into a handful of physical cubes.
        assert engine.stats.queries_requested == 7
        assert engine.stats.physical_queries < 7

    def test_cache_hits_across_calls(self, nfl_db):
        engine = QueryEngine(nfl_db)
        queries = queries_for(nfl_db)
        engine.evaluate(queries)
        first_physical = engine.stats.physical_queries
        engine.evaluate(queries)
        assert engine.stats.physical_queries == first_physical
        assert engine.stats.cache_hits > 0

    def test_fresh_cache_recomputes_the_batch(self, nfl_db):
        """Table 6's "+ Query Merging" rung: cubes shared within a batch,
        nothing kept across batches."""
        engine = QueryEngine(nfl_db)
        queries = queries_for(nfl_db)
        engine.evaluate(queries)
        first_physical = engine.stats.physical_queries
        engine.cache = ResultCache()
        engine.evaluate(queries)
        assert engine.stats.physical_queries == 2 * first_physical

    def test_cache_extends_for_new_literals(self, nfl_db):
        engine = QueryEngine(nfl_db)
        q1 = parse_query(
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'", nfl_db
        )
        q2 = parse_query(
            "SELECT Count(*) FROM nflsuspensions WHERE Games = '16'", nfl_db
        )
        assert engine.evaluate([q1])[q1] == 4
        assert engine.evaluate([q2])[q2] == 4  # four 16-game suspensions
        # Third call over both literals is fully served from cache.
        physical = engine.stats.physical_queries
        result = engine.evaluate([q1, q2])
        assert engine.stats.physical_queries == physical
        assert result[q1] == 4 and result[q2] == 4

    def test_replaced_cache_accumulates_cache_stats(self, nfl_db):
        """Engine stats accumulate hit/miss deltas instead of being
        overwritten with the current cache's counters each batch, so a
        cache replaced (or cleared) between batches loses no count."""
        engine = QueryEngine(nfl_db)
        queries = queries_for(nfl_db)
        engine.evaluate(queries)
        first_misses = engine.stats.cache_misses
        assert first_misses > 0
        engine.cache = ResultCache()
        engine.evaluate(queries)
        # Every batch starts cold, so misses double instead of resetting.
        assert engine.stats.cache_misses == 2 * first_misses

    def test_cached_mode_accumulates_cache_stats(self, nfl_db):
        engine = QueryEngine(nfl_db)
        queries = queries_for(nfl_db)
        engine.evaluate(queries)
        hits, misses = engine.stats.cache_hits, engine.stats.cache_misses
        engine.evaluate(queries)
        # Second batch is fully served from cache: hits grow, misses do not.
        assert engine.stats.cache_hits > hits
        assert engine.stats.cache_misses == misses
        assert (engine.stats.cache_hits, engine.stats.cache_misses) == (
            engine.cache.stats.hits,
            engine.cache.stats.misses,
        )

    def test_naive_counts_each_query(self, nfl_db):
        engine = QueryEngine(nfl_db, ORACLE)
        engine.evaluate(queries_for(nfl_db))
        assert engine.stats.physical_queries == 7

    def test_duplicates_deduplicated(self, nfl_db):
        engine = QueryEngine(nfl_db)
        query = queries_for(nfl_db)[0]
        results = engine.evaluate([query, query, query])
        assert len(results) == 1

    def test_evaluate_one(self, nfl_db):
        engine = QueryEngine(nfl_db)
        query = queries_for(nfl_db)[0]
        assert engine.evaluate_one(query) == 4

    def test_evaluate_one_answers_through_the_cube_and_cache(self, nfl_db):
        engine = QueryEngine(nfl_db)
        queries = queries_for(nfl_db)
        assert engine.evaluate_one(queries[1]) == 1
        assert (engine.stats.cube_queries, engine.stats.cache_hits) == (1, 0)
        assert engine.evaluate_one(queries[1]) == 1
        assert (engine.stats.cube_queries, engine.stats.cache_hits) == (1, 1)
        # Candidates over the same columns read the same cells.
        conditional = queries[-1]
        assert engine.evaluate([conditional])[conditional] == 25.0
        assert (engine.stats.cube_queries, engine.stats.cache_hits) == (1, 2)

    def test_oracle_evaluate_one_runs_no_cube(self, nfl_db):
        engine = QueryEngine(nfl_db, ORACLE)
        assert engine.evaluate_one(queries_for(nfl_db)[0]) == 4
        assert engine.stats.cube_queries == 0
        assert engine.stats.physical_queries == 1

    @pytest.mark.parametrize("backend", ["columnar", "sqlite"])
    def test_evaluate_one_matches_a_number_by_value(self, backend):
        # The literal of the int 10 is "10"; the cells are the float 10.0.
        table = Table(
            "prices",
            [Column("item"), Column("price", ColumnType.NUMERIC)],
            [("a", 10.0), ("b", 10.0), ("c", 12.5), ("d", 7)],
        )
        database = Database("prices", [table])
        engine = QueryEngine(database, EngineConfig(backend=backend))
        oracle = QueryEngine(database, ORACLE)
        for sql, expected in (
            ("SELECT Count(*) FROM prices WHERE price = 10", 2),
            ("SELECT Count(*) FROM prices WHERE price = 7.0", 1),
            ("SELECT Count(*) FROM prices WHERE price = 11", 0),
            ("SELECT Percentage(*) FROM prices WHERE price = 10", 50.0),
        ):
            query = parse_query(sql, database)
            assert engine.evaluate_one(query) == expected, sql
            assert oracle.evaluate_one(query) == expected, sql
        engine.close()

    def test_columnar_literal_lookup_scans_no_rows(self, monkeypatch):
        """The number-to-literal lookup reads the column's dictionary, not
        a scan of the table's rows per query."""
        table = Table(
            "prices",
            [Column("item"), Column("price", ColumnType.NUMERIC)],
            [("a", 10.0), ("b", 10.0), ("c", 12.5), ("d", 7)],
        )
        database = Database("prices", [table])
        scanned = []
        scan = Table.distinct_values
        monkeypatch.setattr(
            Table, "distinct_values",
            lambda self, *args: scanned.append(args) or scan(self, *args),
        )
        engine = QueryEngine(database)
        for sql, expected in (
            ("SELECT Count(*) FROM prices WHERE price = 10", 2),
            ("SELECT Avg(price) FROM prices WHERE price = 7.0", 7.0),
        ):
            assert engine.evaluate_one(parse_query(sql, database)) == expected
        assert scanned == []

    def test_evaluate_one_refuses_a_number_of_two_literals(self):
        table = Table(
            "prices",
            [Column("item"), Column("price", ColumnType.NUMERIC)],
            [("a", 10), ("b", 10.0)],
        )
        database = Database("prices", [table])
        query = parse_query("SELECT Count(*) FROM prices WHERE price = 10", database)
        assert QueryEngine(database, ORACLE).evaluate_one(query) == 2
        with pytest.raises(QueryError, match="matches 2 literals"):
            QueryEngine(database).evaluate_one(query)

    def test_evaluate_one_refuses_a_cube_beyond_the_dimension_limit(self):
        names = [f"c{index}" for index in range(MAX_CUBE_DIMENSIONS + 1)]
        table = Table("wide", [Column(name) for name in names], [("x",) * len(names)])
        database = Database("wide", [table])
        query = parse_query(
            "SELECT Count(*) FROM wide WHERE "
            + " AND ".join(f"{name} = 'x'" for name in names),
            database,
        )
        assert QueryEngine(database, ORACLE).evaluate_one(query) == 1
        with pytest.raises(QueryError, match="limit"):
            QueryEngine(database).evaluate_one(query)


@settings(max_examples=40, deadline=None)
@given(
    database=small_databases(),
    queries=st.lists(claim_queries() | conditional_queries(), min_size=1, max_size=12),
)
def test_engine_modes_equivalent(database, queries):
    """Property: the merged, cached engine agrees with the naive one,
    also when answering from its cache."""
    assert_engine_matches_oracle(database, queries, "columnar", repeat=2)
