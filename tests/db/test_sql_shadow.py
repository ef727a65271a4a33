"""The SQL tier's shadow columns: encoding, read-only laziness, no UDFs.

The pushdown adapters let SQL see only dictionary codes and numbers
(``repro.db.adapters.sqlbase``). These tests pin the encoding itself to
the scalar reference functions, the file-backed build to "once per
touched column, never to the source", and every generated statement to
"no Python call per row". Stdlib-only, like the rest of the sqlite tier.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    Column,
    ColumnRef,
    Database,
    EngineConfig,
    QueryEngine,
    Table,
    parse_query,
)
from repro.db.adapters import SqliteAdapter, load_sqlite_database
from repro.db.values import coerce_number, is_missing, normalize_string

from tests.db.oracle import assert_bit_equal
from tests.db.strategies import (
    BEYOND_FLOAT,
    claim_queries,
    conditional_queries,
    joined_databases,
    joined_queries,
    nullheavy_databases,
    shadow_cells,
    small_databases,
)
from tests.db.test_out_of_core import build_orders_file

INT64 = range(-(2**63), 2**63)
CELL = ColumnRef("t", "c")


def beyond_int64(value) -> bool:
    return isinstance(value, int) and value not in INT64


def assert_images_match(adapter, cells, shadow_rows):
    """``shadow_rows[i]`` is ``(k, n)`` of ``cells[i]``."""
    values = adapter.dictionary(CELL).values
    for cell, (k, n) in zip(cells, shadow_rows):
        context = f"cell {cell!r}"
        # NULL stays NULL; code 0 is the blank string; both are missing.
        assert (k is None) == (cell is None), context
        assert (not k) == is_missing(cell), context
        if cell is not None:
            assert values[k] == normalize_string(cell), context
        expected = coerce_number(cell)
        if beyond_int64(expected):
            expected = float(expected)  # documented: no SQL INTEGER holds it
        assert_bit_equal(expected, n, context)


class TestShadowEncoding:
    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(shadow_cells(), min_size=1, max_size=12))
    def test_loaded_shadow_reproduces_scalar_semantics(self, cells):
        database = Database(
            "d", [Table("t", [Column("c")], [(cell,) for cell in cells])]
        )
        adapter = SqliteAdapter(database)
        try:
            rows = adapter._connection.execute(
                "SELECT c0k, c0n FROM t0 ORDER BY rowid"
            ).fetchall()
            assert_images_match(adapter, cells, rows)
        finally:
            adapter.close()

    @settings(max_examples=60, deadline=None)
    @given(cells=st.lists(shadow_cells(), min_size=1, max_size=12))
    def test_file_backed_shadow_reproduces_scalar_semantics(
        self, tmp_path_factory, cells
    ):
        # What SQLite cannot store as given (bool, NaN, > 64-bit ints) is
        # written as its string; the cells read back are the ground truth.
        path = tmp_path_factory.mktemp("shadow") / "cells.sqlite"
        connection = sqlite3.connect(os.fspath(path))
        connection.execute("CREATE TABLE t (c)")
        connection.executemany(
            "INSERT INTO t VALUES (?)",
            [
                (
                    str(cell)
                    if isinstance(cell, bool)
                    or cell != cell
                    or beyond_int64(cell)
                    else cell,
                )
                for cell in cells
            ],
        )
        connection.commit()
        connection.close()
        database = load_sqlite_database(path)
        stored = [row[0] for row in database.table("t").rows]
        adapter = SqliteAdapter(database)
        try:
            adapter.join_clause(frozenset({"t"}), (CELL,))  # builds the shadow
            rows = adapter._connection.execute(
                "SELECT k, n FROM shadow.t0c0 ORDER BY id"
            ).fetchall()
            assert_images_match(adapter, stored, rows)
        finally:
            adapter.close()

    def test_one_number_many_spellings_in_one_column(self):
        cells = [1200, 1200.0, "1,200", "$1,200", "1200", True, None, ""]
        database = Database(
            "d", [Table("t", [Column("c")], [(cell,) for cell in cells])]
        )
        adapter = SqliteAdapter(database)
        try:
            rows = adapter._connection.execute(
                "SELECT c0k, c0n FROM t0 ORDER BY rowid"
            ).fetchall()
            images = [
                name
                for _, name, *_ in adapter._connection.execute(
                    "PRAGMA table_info(t0)"
                )
            ]
        finally:
            adapter.close()
        codes = [row[0] for row in rows]
        # 1200 and "1200" share a code; every other spelling is distinct.
        assert codes[0] == codes[4] and len(set(codes[:6])) == 5
        assert codes[6] is None and codes[7] == 0
        assert [type(row[1]) for row in rows[:5]] == [int, float, int, int, int]
        # Two images per column: the code and the number.
        assert images == ["c0k", "c0n"]

    @pytest.mark.parametrize("backend", ["row", "columnar", "sqlite"])
    def test_int_beyond_float_range_is_present_but_non_numeric(self, backend):
        rows = [("a", BEYOND_FLOAT), ("a", str(BEYOND_FLOAT)), ("a", 2), ("b", 4)]
        database = Database(
            "d", [Table("t", [Column("kind"), Column("amount")], rows)]
        )
        engine = QueryEngine(database, EngineConfig(backend=backend))
        queries = [
            parse_query(sql, database)
            for sql in (
                "SELECT Count(amount) FROM t WHERE kind = 'a'",
                "SELECT CountDistinct(amount) FROM t WHERE kind = 'a'",
                "SELECT Sum(amount) FROM t WHERE kind = 'a'",
                "SELECT Avg(amount) FROM t",
                "SELECT Max(amount) FROM t",
            )
        ]
        results = engine.evaluate(queries)
        engine.close()
        assert [results[query] for query in queries] == [3, 2, 2, 3, 4]


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def trace_statements(engine) -> list[str]:
    """Every statement SQLite runs on the adapter's connection from now on
    (generated statements and shadow builds alike)."""
    statements: list[str] = []
    engine.adapter._connection.set_trace_callback(statements.append)
    return statements


class TestFileBackedShadow:
    @pytest.fixture()
    def orders_path(self, tmp_path):
        return build_orders_file(tmp_path / "orders.sqlite")

    def test_source_untouched_and_shadows_built_once(
        self, orders_path, monkeypatch, tmp_path
    ):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        before = (sha256(orders_path), os.stat(orders_path).st_mtime_ns)
        beside = sorted(os.listdir(os.path.dirname(orders_path)))
        database = load_sqlite_database(orders_path)
        engine = QueryEngine(database, EngineConfig(backend="sqlite"))
        statements = trace_statements(engine)
        first = [
            parse_query(sql, database)
            for sql in (
                "SELECT Sum(amount) FROM orders WHERE status = 'open'",
                "SELECT Count(*) FROM orders JOIN regions"
                " WHERE zone = 'east'",
            )
        ]
        engine.evaluate(first)
        builds = [s for s in statements if "INSERT INTO shadow." in s]
        # status, amount, both join keys and zone: one build each.
        assert len(builds) == 5
        assert len(set(builds)) == 5
        del statements[:]
        again = parse_query(
            "SELECT Avg(amount) FROM orders WHERE status = 'closed'",
            database,
        )
        engine.evaluate([again])
        assert statements, "the second query runs in SQL"
        assert not [s for s in statements if "shadow." in s and "INSERT" in s]
        assert not [s for s in statements if s.startswith("CREATE")]
        assert engine.stats.rows_materialized == 0
        engine.close()
        assert (sha256(orders_path), os.stat(orders_path).st_mtime_ns) == before
        assert sorted(os.listdir(os.path.dirname(orders_path))) == beside
        assert os.listdir(workdir) == []

    def test_counting_rows_builds_nothing(self, orders_path):
        database = load_sqlite_database(orders_path)
        engine = QueryEngine(database, EngineConfig(backend="sqlite"))
        statements = trace_statements(engine)
        query = parse_query("SELECT Count(*) FROM orders", database)
        assert engine.evaluate([query])[query] == 150_000
        assert not [s for s in statements if "shadow." in s]
        engine.close()

    def test_without_rowid_table(self, tmp_path):
        path = tmp_path / "norowid.sqlite"
        connection = sqlite3.connect(os.fspath(path))
        connection.execute(
            "CREATE TABLE t (code TEXT PRIMARY KEY, kind TEXT, amount)"
            " WITHOUT ROWID"
        )
        connection.execute("CREATE INDEX by_kind ON t (kind)")
        rows = [(f"k{i:03d}", "ab"[i % 2], i) for i in range(200)]
        connection.executemany("INSERT INTO t VALUES (?, ?, ?)", rows[::-1])
        connection.commit()
        connection.close()
        database = load_sqlite_database(path)
        queries = [
            parse_query(sql, database)
            for sql in (
                "SELECT Sum(amount) FROM t WHERE kind = 'a'",
                "SELECT Count(*) FROM t WHERE kind = 'b' AND code = 'k001'",
            )
        ]
        engine = QueryEngine(database, EngineConfig(backend="sqlite"))
        results = engine.evaluate(queries)
        engine.close()
        assert results[queries[0]] == sum(range(0, 200, 2))
        assert results[queries[1]] == 1


#: The scalar functions the SQL tier registered before shadow columns.
LEGACY_UDFS = ("rnorm(", "rnum(", "rmiss(", "req(")


def assert_no_python_call_per_row(statements: list[str]) -> None:
    assert statements
    for statement in statements:
        assert not any(name in statement for name in LEGACY_UDFS), statement
        if "rimage(" in statement:
            # The one sanctioned call site: a column's shadow build.
            assert statement.startswith("INSERT INTO shadow."), statement


class TestNoScalarFunctionInGeneratedSql:
    def sweep(self, database, queries):
        engine = QueryEngine(database, EngineConfig(backend="sqlite"))
        statements = trace_statements(engine)
        engine.evaluate(queries)
        engine.close()
        assert_no_python_call_per_row(statements)

    @settings(max_examples=25, deadline=None)
    @given(
        database=small_databases() | nullheavy_databases(),
        queries=st.lists(
            claim_queries() | conditional_queries(), min_size=1, max_size=6
        ),
    )
    def test_single_table_statements(self, database, queries):
        self.sweep(database, queries)

    @settings(max_examples=25, deadline=None)
    @given(
        database=joined_databases(),
        queries=st.lists(joined_queries(), min_size=1, max_size=6),
    )
    def test_joined_statements(self, database, queries):
        self.sweep(database, queries)

    def test_file_backed_statements(self, tmp_path):
        path = build_orders_file(tmp_path / "orders.sqlite")
        database = load_sqlite_database(path)
        self.sweep(
            database,
            [
                parse_query(sql, database)
                for sql in (
                    "SELECT Sum(amount) FROM orders WHERE region = 'r0'",
                    "SELECT CountDistinct(region) FROM orders",
                    "SELECT Percentage(*) FROM orders JOIN regions"
                    " WHERE zone = 'east'",
                )
            ],
        )

    def test_loaded_connection_registers_no_function(self):
        database = Database(
            "d", [Table("t", [Column("c")], [("x",), ("y",)])]
        )
        adapter = SqliteAdapter(database)
        try:
            for name in LEGACY_UDFS + ("rimage(",):
                with pytest.raises(
                    sqlite3.OperationalError, match="no such function"
                ):
                    adapter._connection.execute(f"SELECT {name}1)")
        finally:
            adapter.close()
