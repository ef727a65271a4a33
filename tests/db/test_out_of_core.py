"""Out-of-core verification over file-backed SQLite databases.

The tentpole acceptance scenario: a SQLite file far larger than any
sane materialization budget is verified by the pushdown tier without a
single relation ever entering Python. ``EngineStats.rows_materialized``
is the proof. The 1M-row variant of the same scenario lives in
``benchmarks/bench_sql_backend.py``.
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import replace

import pytest

import repro.db.columnar as columnar
from repro.budget import ResourceBudget
from repro.core.checker import AggChecker
from repro.core.config import AggCheckerConfig
from repro.db import (
    Database,
    EngineConfig,
    ForeignKey,
    QueryEngine,
    parse_query,
)
from repro.db.adapters import SqlBackedTable, load_sqlite_database
from repro.db.adapters.sqlite import _SqlRows
from repro.db.columnar import ExecutionBackend
from repro.db.diskcache import database_fingerprint
from repro.db.joins import JoinGraph
from repro.db.schema import ColumnType, SchemaError
from repro.errors import BudgetExceeded

#: Orders-table size: large enough that a max_rows=1000 budget is three
#: orders of magnitude below it, small enough to build in well under a
#: second. Divisible by the region (5) and status (3) cycles so expected
#: aggregates are exact closed forms.
N_ORDERS = 150_000

ZONES = {"r0": "east", "r1": "east", "r2": "west", "r3": "west", "r4": "west"}


def build_orders_file(path) -> str:
    """A two-table star schema written straight to a SQLite file."""
    connection = sqlite3.connect(os.fspath(path))
    try:
        connection.execute(
            "CREATE TABLE regions (region_id TEXT PRIMARY KEY, zone TEXT)"
        )
        connection.executemany(
            "INSERT INTO regions VALUES (?, ?)", sorted(ZONES.items())
        )
        connection.execute(
            "CREATE TABLE orders ("
            " order_id INTEGER PRIMARY KEY,"
            " region TEXT REFERENCES regions(region_id),"
            " status TEXT,"
            " amount INTEGER)"
        )
        connection.executemany(
            "INSERT INTO orders VALUES (?, ?, ?, ?)",
            (
                (
                    i,
                    f"r{i % 5}",
                    "open" if i % 3 == 0 else "closed",
                    i % 100,
                )
                for i in range(N_ORDERS)
            ),
        )
        connection.commit()
    finally:
        connection.close()
    return os.fspath(path)


@pytest.fixture(scope="module")
def orders_path(tmp_path_factory):
    return build_orders_file(
        tmp_path_factory.mktemp("outofcore") / "orders.sqlite"
    )


@pytest.fixture(scope="module")
def orders_db(orders_path) -> Database:
    return load_sqlite_database(orders_path)


def tiny_budget() -> ResourceBudget:
    """A materialization budget 150x below the orders table."""
    return ResourceBudget(max_rows=1000)


class TestOutOfCoreVerification:
    def test_large_file_verifies_under_tiny_budget(self, orders_db):
        engine = QueryEngine(orders_db, EngineConfig(backend="sqlite"))
        engine.budget = tiny_budget()
        queries = [
            parse_query(sql, orders_db)
            for sql in (
                "SELECT Count(*) FROM orders WHERE region = 'r0'",
                "SELECT Sum(amount) FROM orders WHERE region = 'r0'",
                "SELECT Avg(amount) FROM orders WHERE status = 'open'",
                "SELECT CountDistinct(region) FROM orders",
            )
        ]
        results = engine.evaluate(queries)
        r0_amounts = [(5 * k) % 100 for k in range(N_ORDERS // 5)]
        open_amounts = [(3 * k) % 100 for k in range(N_ORDERS // 3)]
        assert results[queries[0]] == N_ORDERS // 5
        assert results[queries[1]] == sum(r0_amounts)
        assert results[queries[2]] == pytest.approx(
            sum(open_amounts) / len(open_amounts)
        )
        assert results[queries[3]] == 5
        # The proof of pushdown: nothing was ever pulled into Python.
        assert engine.stats.rows_materialized == 0
        assert engine.stats.pushdown_queries >= 1
        assert engine.stats.budget_rejections == 0
        engine.close()

    def test_joined_query_stays_out_of_core(self, orders_db):
        engine = QueryEngine(orders_db, EngineConfig(backend="sqlite"))
        engine.budget = tiny_budget()
        query = parse_query(
            "SELECT Count(*) FROM orders JOIN regions WHERE zone = 'east'",
            orders_db,
        )
        east = sum(1 for i in range(N_ORDERS) if ZONES[f"r{i % 5}"] == "east")
        assert engine.evaluate([query])[query] == east
        assert engine.stats.rows_materialized == 0
        engine.close()

    def test_in_memory_backend_rejects_the_same_budget(self, orders_db):
        # The contrast that motivates the capability consultation: for an
        # in-memory adapter the relation IS the materialization, so the
        # identical budget refuses the same database outright.
        engine = QueryEngine(orders_db, EngineConfig(backend="columnar"))
        engine.budget = tiny_budget()
        query = parse_query("SELECT Count(*) FROM orders", orders_db)
        with pytest.raises(BudgetExceeded):
            engine.evaluate([query])
        assert engine.stats.budget_rejections == 1
        assert engine.stats.physical_queries == 0
        engine.close()

    def test_disk_cache_fast_fingerprint(self, orders_db, tmp_path):
        # content_token keeps fingerprinting O(schema), not O(rows), so
        # the disk tier works over the file without streaming it.
        engine = QueryEngine(
            orders_db, EngineConfig(backend="sqlite", cache_dir=tmp_path)
        )
        query = parse_query(
            "SELECT Count(*) FROM orders WHERE status = 'open'", orders_db
        )
        engine.evaluate([query])
        assert engine.stats.disk_misses >= 1
        assert engine.stats.rows_materialized == 0
        warm = QueryEngine(
            orders_db, EngineConfig(backend="sqlite", cache_dir=tmp_path)
        )
        warm.evaluate([query])
        assert warm.stats.disk_hits >= 1
        assert warm.stats.cube_queries == 0
        engine.close()
        warm.close()


class TestExtractionStaysOutOfCore:
    def test_checker_extracts_from_the_file_without_materialising(
        self, orders_db, monkeypatch
    ):
        factorized = []
        original = columnar.factorize
        monkeypatch.setattr(
            columnar, "factorize",
            lambda cells: factorized.append(len(cells)) or original(cells),
        )
        checker = AggChecker(
            orders_db, AggCheckerConfig(engine=EngineConfig(backend="sqlite"))
        )
        values = {
            fragment.predicate.value for fragment in checker.catalog.predicates
        }
        assert {"r0", "open", "closed", "east"} <= values
        assert checker.engine.stats.rows_materialized == 0
        assert factorized == []  # extraction streamed; nothing was encoded
        checker.engine.close()

    def test_columnar_encode_streams_the_file_once(self, orders_db, monkeypatch):
        streamed = []
        original = _SqlRows.__iter__

        def counting(rows):
            streamed.append(rows._table)
            return original(rows)

        monkeypatch.setattr(_SqlRows, "__iter__", counting)
        graph = JoinGraph(orders_db, backend=ExecutionBackend.COLUMNAR)
        encoded = graph.encoded_table("orders")
        vectors = encoded.vectors
        assert streamed == ["orders"]
        assert [len(vector.codes) for vector in vectors] == [N_ORDERS] * 4
        assert encoded.dictionary(1).cells[1:] == [f"r{i}" for i in range(5)]


def open_handles(*needles: str) -> list[str]:
    """Targets of this process's open descriptors that mention a needle."""
    targets = []
    for descriptor in os.listdir("/proc/self/fd"):
        try:
            targets.append(os.readlink(f"/proc/self/fd/{descriptor}"))
        except OSError:  # closed between listdir and readlink
            continue
    return [t for t in targets if any(needle in t for needle in needles)]


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestNoConnectionOutlivesItsUse:
    def test_close_releases_source_and_shadow_database(self, tmp_path):
        path = build_orders_file(tmp_path / "orders.sqlite")
        database = load_sqlite_database(path)
        orders = database.table("orders")
        # Table access opens per operation and closes behind itself.
        assert len(orders.rows) == N_ORDERS
        assert orders.rows[5][0] == 5
        assert sum(1 for _ in orders.rows) == N_ORDERS
        assert open_handles(path) == []
        abandoned = iter(orders.rows)
        next(abandoned)
        engine = QueryEngine(database, EngineConfig(backend="sqlite"))
        queries = [
            parse_query(sql, database)
            for sql in (
                "SELECT Sum(amount) FROM orders WHERE status = 'open'",
                "SELECT Count(*) FROM orders JOIN regions WHERE zone = 'east'",
            )
        ]
        engine.evaluate(queries)
        assert open_handles(path)  # the adapter and the suspended scan
        engine.close()
        del abandoned  # an abandoned scan closes when it is collected
        # "etilqs" is SQLite's temporary-file prefix: the shadow database.
        assert open_handles(path, "etilqs") == []


class TestSqlBackedTable:
    def test_len_is_pushed_down_count(self, orders_db):
        orders = next(t for t in orders_db.tables if t.name == "orders")
        assert isinstance(orders, SqlBackedTable)
        assert len(orders.rows) == N_ORDERS

    def test_rows_stream_lazily(self, orders_path):
        database = load_sqlite_database(orders_path)
        orders = next(t for t in database.tables if t.name == "orders")
        iterator = iter(orders.rows)
        first = next(iterator)
        assert first == (0, "r0", "open", 0)
        # Indexing round-trips through LIMIT/OFFSET, negatives included.
        assert orders.rows[1] == (1, "r1", "closed", 1)
        assert orders.rows[-1] == (
            N_ORDERS - 1,
            f"r{(N_ORDERS - 1) % 5}",
            "open" if (N_ORDERS - 1) % 3 == 0 else "closed",
            (N_ORDERS - 1) % 100,
        )
        with pytest.raises(IndexError):
            orders.rows[N_ORDERS]

    def test_full_iteration_matches_count(self, tmp_path):
        path = tmp_path / "small.sqlite"
        connection = sqlite3.connect(os.fspath(path))
        connection.execute("CREATE TABLE t (a TEXT, b INTEGER)")
        connection.executemany(
            "INSERT INTO t VALUES (?, ?)", ((f"v{i}", i) for i in range(5000))
        )
        connection.commit()
        connection.close()
        table = next(iter(load_sqlite_database(path).tables))
        rows = list(table.rows)
        assert len(rows) == len(table.rows) == 5000
        assert rows[0] == ("v0", 0)
        assert rows[-1] == ("v4999", 4999)

    def test_append_refused(self, orders_db):
        orders = next(t for t in orders_db.tables if t.name == "orders")
        with pytest.raises(SchemaError, match="read-only"):
            orders.append((N_ORDERS, "r0", "open", 1))

    def test_with_columns_stays_lazy(self, orders_db):
        orders = next(t for t in orders_db.tables if t.name == "orders")
        # The data-dictionary layer swaps column metadata in; the result
        # must stay file-backed rather than degrade to an eager copy.
        annotated = orders.with_columns(
            [replace(c, description=f"doc for {c.name}") for c in orders.columns]
        )
        assert isinstance(annotated, SqlBackedTable)
        assert all(c.description.startswith("doc for ") for c in annotated.columns)
        assert annotated.primary_key == "order_id"
        assert len(annotated.rows) == N_ORDERS
        with pytest.raises(SchemaError, match="expected 4 columns"):
            orders.with_columns(orders.columns[:2])

    def test_content_token_tracks_file_changes(self, tmp_path):
        path = tmp_path / "token.sqlite"
        connection = sqlite3.connect(os.fspath(path))
        connection.execute("CREATE TABLE t (a TEXT)")
        connection.execute("INSERT INTO t VALUES ('x')")
        connection.commit()
        connection.close()
        table = next(iter(load_sqlite_database(path).tables))
        before = table.content_token()
        assert before == table.content_token()
        connection = sqlite3.connect(os.fspath(path))
        connection.execute("INSERT INTO t VALUES ('y')")
        connection.commit()
        connection.close()
        os.utime(path)  # coarse-mtime filesystems
        assert table.content_token() != before


class TestLoaderIntrospection:
    def test_schema_and_foreign_keys(self, orders_db):
        assert {t.name for t in orders_db.tables} == {"orders", "regions"}
        assert list(orders_db.foreign_keys) == [
            ForeignKey("orders", "region", "regions", "region_id")
        ]
        orders = next(t for t in orders_db.tables if t.name == "orders")
        assert orders.primary_key == "order_id"
        types = {c.name: c.type for c in orders.columns}
        assert types["amount"] is ColumnType.NUMERIC
        assert types["status"] is ColumnType.STRING

    def test_database_name_defaults_to_stem(self, orders_db, orders_path):
        assert orders_db.name == "orders"
        assert orders_db.sqlite_path == orders_path

    def test_missing_file_is_a_schema_error(self, tmp_path):
        with pytest.raises(SchemaError, match="no such SQLite database"):
            load_sqlite_database(tmp_path / "absent.sqlite")

    def test_empty_database_is_a_schema_error(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        sqlite3.connect(os.fspath(path)).close()
        with pytest.raises(SchemaError, match="no tables"):
            load_sqlite_database(path)

    def test_fingerprint_changes_with_file_content(self, tmp_path):
        path = tmp_path / "fp.sqlite"
        connection = sqlite3.connect(os.fspath(path))
        connection.execute("CREATE TABLE t (a TEXT)")
        connection.execute("INSERT INTO t VALUES ('x')")
        connection.commit()
        connection.close()
        before = database_fingerprint(load_sqlite_database(path))
        connection = sqlite3.connect(os.fspath(path))
        connection.execute("INSERT INTO t VALUES ('y')")
        connection.commit()
        connection.close()
        os.utime(path)
        after = database_fingerprint(load_sqlite_database(path))
        assert before != after
