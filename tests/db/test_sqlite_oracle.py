"""Bit-identity oracle for the SQLite pushdown adapter.

The acceptance contract of the SQL tier is *exact* agreement with the
row-wise in-memory executor — same values AND same Python types — across
NULL-heavy data, joins with dangling keys, empty groups, duplicate keys,
messy numerics, and unicode.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    ColumnType,
    Database,
    EngineConfig,
    ExecutionMode,
    QueryEngine,
    Table,
    parse_query,
)

from tests.db.strategies import (
    claim_queries,
    conditional_queries,
    joined_databases,
    joined_queries,
    nullheavy_databases,
    small_databases,
)

MODES = (ExecutionMode.NAIVE, ExecutionMode.MERGED_CACHED)

#: Every installed SQL adapter is held to the same bit-identity bar; the
#: CI duckdb leg installs the optional dependency and lands here too.
from repro.db.adapters import DuckdbAdapter

SQL_BACKENDS = ("sqlite",) + (
    ("duckdb",) if DuckdbAdapter.available() else ()
)


def assert_bit_equal(expected, actual, context: str) -> None:
    """Same value, same type; floats compared by repr (NaN, -0.0)."""
    assert type(expected) is type(actual), (
        f"{context}: type {type(expected).__name__} != {type(actual).__name__}"
        f" ({expected!r} vs {actual!r})"
    )
    if isinstance(expected, float):
        assert repr(expected) == repr(actual), context
    else:
        assert expected == actual, f"{context}: {expected!r} != {actual!r}"


def assert_engines_agree(database, queries, backends=SQL_BACKENDS):
    for backend in backends:
        for mode in MODES:
            oracle = QueryEngine(
                database, EngineConfig(mode=mode, backend="row")
            )
            sql = QueryEngine(database, EngineConfig(mode=mode, backend=backend))
            expected = oracle.evaluate(queries)
            actual = sql.evaluate(queries)
            for query in set(queries):
                assert_bit_equal(
                    expected[query],
                    actual[query],
                    f"{backend} {mode.value} {query}",
                )
            # The pushdown tier never pulls the relation into Python.
            assert sql.stats.rows_materialized == 0
            assert sql.stats.pushdown_queries >= 1 or not queries
            # Both tiers report the same scan accounting per evaluate().
            assert sql.stats.rows_scanned == oracle.stats.rows_scanned
            sql.close()
            oracle.close()


class TestRandomizedOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        database=small_databases() | nullheavy_databases(),
        queries=st.lists(
            claim_queries() | conditional_queries(), min_size=1, max_size=8
        ),
    )
    def test_single_table_bit_identity(self, database, queries):
        assert_engines_agree(database, queries)

    @settings(max_examples=40, deadline=None)
    @given(
        database=joined_databases(),
        queries=st.lists(joined_queries(), min_size=1, max_size=6),
    )
    def test_joined_bit_identity(self, database, queries):
        """NULL join keys and dangling foreign keys drop identically."""
        assert_engines_agree(database, queries)


def run_queries(database, sqls):
    queries = [parse_query(sql, database) for sql in sqls]
    assert_engines_agree(database, queries)


class TestEdgeCases:
    def test_empty_relation_has_no_groups(self):
        table = Table(
            "facts",
            [Column("category"), Column("amount", ColumnType.NUMERIC)],
            [],
        )
        run_queries(
            Database("empty", [table]),
            [
                "SELECT Count(*) FROM facts",
                "SELECT Sum(amount) FROM facts",
                "SELECT Avg(amount) FROM facts WHERE category = 'alpha'",
                "SELECT Percentage(*) FROM facts WHERE category = 'alpha'",
            ],
        )

    def test_all_null_column(self):
        table = Table(
            "facts",
            [Column("category"), Column("amount", ColumnType.NUMERIC)],
            [(None, None), (None, None), ("alpha", None)],
        )
        run_queries(
            Database("nulls", [table]),
            [
                "SELECT Count(amount) FROM facts",
                "SELECT CountDistinct(category) FROM facts",
                "SELECT Sum(amount) FROM facts",
                "SELECT Min(amount) FROM facts WHERE category = 'alpha'",
            ],
        )

    def test_signed_zeros_are_two_cells(self):
        # 0.0 == -0.0, but they normalize to "0.0" and "-0.0": an encoder
        # that memoises per ``==`` lets whichever comes first name both.
        for zeros in ((0.0, -0.0), (-0.0, 0.0)):
            table = Table(
                "facts",
                [Column("category"), Column("amount", ColumnType.NUMERIC)],
                [("alpha", zero) for zero in zeros] + [("alpha", 1.5)],
            )
            run_queries(
                Database("zeros", [table]),
                [
                    "SELECT Count(*) FROM facts WHERE amount = '-0.0'",
                    "SELECT Count(*) FROM facts WHERE amount = '0.0'",
                    "SELECT CountDistinct(amount) FROM facts",
                    "SELECT Min(amount) FROM facts",
                ],
            )

    def test_equal_extremes_keep_the_earliest_row(self):
        # 0, 0.0 and -0.0 tie as numbers. A cube over ``flag`` meets the
        # later row's group first (row 0 opens the default bucket); the
        # rollup must still report the earliest row's cell, as a scan does.
        for ties in ((0, 0.0), (0.0, -0.0), (-0.0, 0)):
            table = Table(
                "facts",
                [Column("flag"), Column("amount", ColumnType.NUMERIC)],
                [(None, None), ("yes", ties[0]), (None, ties[1])],
            )
            run_queries(
                Database("ties", [table]),
                [
                    "SELECT Count(*) FROM facts WHERE flag = 'yes'",
                    "SELECT Min(amount) FROM facts",
                    "SELECT Max(amount) FROM facts",
                ],
            )

    def test_duplicate_keys_and_rows(self):
        rows = [("alpha", 3), ("alpha", 3), ("ALPHA  ", 3), ("alpha", -3)] * 5
        table = Table(
            "facts",
            [Column("category"), Column("amount", ColumnType.NUMERIC)],
            rows,
        )
        run_queries(
            Database("dupes", [table]),
            [
                "SELECT Count(*) FROM facts WHERE category = 'alpha'",
                "SELECT CountDistinct(category) FROM facts",
                "SELECT Sum(amount) FROM facts WHERE category = 'alpha'",
                "SELECT Avg(amount) FROM facts",
            ],
        )

    def test_unicode_values_and_identifiers(self):
        # Identifiers with spaces, quotes, and non-ASCII letters cannot be
        # written in the paper's display SQL; build the queries directly.
        from repro.db import (
            AggregateFunction,
            AggregateSpec,
            ColumnRef,
            Predicate,
            STAR,
            SimpleAggregateQuery,
        )

        table = Table(
            "café sales",
            [Column('drink "type"'), Column("préis", ColumnType.NUMERIC)],
            [
                ("Caffè  LATTE", 4),
                ("caffè latte", 5),
                ("ĿATTE", 6),
                ("抹茶", 7),
                (None, 8),
            ],
        )
        database = Database("unicode", [table])
        drink = ColumnRef("café sales", 'drink "type"')
        price = ColumnRef("café sales", "préis")
        queries = [
            SimpleAggregateQuery(
                AggregateSpec(AggregateFunction.COUNT, STAR),
                (Predicate(drink, "caffè latte"),),
            ),
            SimpleAggregateQuery(
                AggregateSpec(AggregateFunction.COUNT_DISTINCT, drink), ()
            ),
            SimpleAggregateQuery(
                AggregateSpec(AggregateFunction.SUM, price),
                (Predicate(drink, "抹茶"),),
            ),
        ]
        assert_engines_agree(database, queries)

    def test_messy_numeric_coercion(self):
        rows = [
            ("a", "1,200"),
            ("a", "$40"),
            ("a", "12%"),
            ("b", "(3)"),
            ("b", "n/a"),
            ("b", "  7  "),
            ("b", ""),
            ("c", True),
            ("c", False),
            ("c", float("nan")),
            ("c", float("inf")),
        ]
        table = Table(
            "facts",
            [Column("category"), Column("amount", ColumnType.NUMERIC)],
            rows,
        )
        run_queries(
            Database("messy", [table]),
            [
                "SELECT Sum(amount) FROM facts WHERE category = 'a'",
                "SELECT Count(amount) FROM facts",
                "SELECT Min(amount) FROM facts WHERE category = 'b'",
                "SELECT Max(amount) FROM facts",
                "SELECT Avg(amount) FROM facts WHERE category = 'c'",
            ],
        )

    def test_int64_overflow_and_huge_values(self):
        rows = [
            ("a", 2**63),  # beyond SQLite INTEGER
            ("a", -(2**64)),
            ("b", 2**62),
            ("b", 1),
        ]
        table = Table(
            "facts",
            [Column("category"), Column("amount", ColumnType.NUMERIC)],
            rows,
        )
        run_queries(
            Database("big", [table]),
            [
                "SELECT Count(amount) FROM facts",
                "SELECT Sum(amount) FROM facts WHERE category = 'b'",
                "SELECT Max(amount) FROM facts WHERE category = 'b'",
            ],
        )

    def test_float_totals_match_reference_accumulator(self):
        # SUM over ints through the cube path returns float (the paper
        # engine's accumulator seeds total=0.0); the naive path keeps int.
        table = Table(
            "facts",
            [Column("category"), Column("amount", ColumnType.NUMERIC)],
            [("a", 1), ("a", 2)],
        )
        database = Database("sums", [table])
        query = parse_query("SELECT Sum(amount) FROM facts WHERE category = 'a'", database)
        naive = QueryEngine(
            database, EngineConfig(mode=ExecutionMode.NAIVE, backend="sqlite")
        ).evaluate([query])[query]
        cubed = QueryEngine(
            database,
            EngineConfig(mode=ExecutionMode.MERGED_CACHED, backend="sqlite"),
        ).evaluate([query])[query]
        assert type(naive) is int and naive == 3
        assert type(cubed) is float and cubed == 3.0


class TestCorpusVerdictIdentity:
    @pytest.mark.parametrize("backend", SQL_BACKENDS)
    def test_sql_backend_reproduces_columnar_verdicts(self, backend):
        """Full-pipeline acceptance: every builtin-corpus verdict under
        ``--backend sqlite`` (or duckdb) is the columnar verdict, bit for
        bit."""
        from repro.core.config import AggCheckerConfig
        from repro.corpus import generate_corpus
        from repro.harness import run_corpus

        corpus = generate_corpus()
        reference = run_corpus(
            corpus, AggCheckerConfig(engine=EngineConfig(backend="columnar"))
        )
        pushdown = run_corpus(
            corpus, AggCheckerConfig(engine=EngineConfig(backend=backend))
        )
        assert len(reference.results) == len(pushdown.results) > 0
        for expected, actual in zip(reference.results, pushdown.results):
            left = [
                (v.claim.mention.text, v.status, v.hover_text)
                for v in expected.report.verdicts
            ]
            right = [
                (v.claim.mention.text, v.status, v.hover_text)
                for v in actual.report.verdicts
            ]
            assert left == right


class TestDiskCacheInterop:
    def test_sqlite_cells_never_cross_backends(self, tmp_path):
        table = Table(
            "events",
            [Column("kind"), Column("score", ColumnType.NUMERIC)],
            [("a", 1), ("a", 2), ("b", 3)],
        )
        db = Database("d", [table])
        query = parse_query("SELECT Count(*) FROM events WHERE kind = 'a'", db)
        sql_engine = QueryEngine(
            db, EngineConfig(backend="sqlite", cache_dir=tmp_path)
        )
        sql_engine.evaluate([query])
        assert sql_engine.stats.disk_misses == 1

        # Same backend: warm.
        warm = QueryEngine(db, EngineConfig(backend="sqlite", cache_dir=tmp_path))
        warm.evaluate([query])
        assert warm.stats.disk_hits == 1
        assert warm.stats.cube_queries == 0

        # Different backend: cold (cells are keyed by adapter name).
        other = QueryEngine(db, EngineConfig(backend="row", cache_dir=tmp_path))
        other.evaluate([query])
        assert other.stats.disk_hits == 0
        assert other.stats.cube_queries == 1
