"""The storage-adapter API: the closed backend set, the pushdown flag,
EngineConfig, and predictive cardinality estimates feeding budget
admission."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.budget import ResourceBudget, estimate_cube_cells
from repro.core.config import AggCheckerConfig
from repro.db import (
    BACKENDS,
    Column,
    ColumnType,
    Database,
    EngineConfig,
    ExecutionMode,
    ForeignKey,
    QueryEngine,
    Table,
    canonical_backend_name,
    create_adapter,
    parse_query,
)
from repro.db.adapters import ColumnarAdapter, RowAdapter, SqliteAdapter
from repro.db.columnar import ExecutionBackend
from repro.errors import BudgetExceeded, QueryError

from tests.db.oracle import ORACLE


def small_db() -> Database:
    table = Table(
        "events",
        [Column("kind"), Column("score", ColumnType.NUMERIC)],
        [("a", 1), ("a", 2), ("b", 3), (None, 4)],
    )
    return Database("d", [table])


def fanout_db(n_players_per_team=4, n_teams=3) -> Database:
    teams = Table(
        "teams",
        [Column("team_id"), Column("league")],
        [(f"t{i}", "east") for i in range(n_teams)],
        primary_key="team_id",
    )
    players = Table(
        "players",
        [Column("player_id"), Column("team"), Column("salary", ColumnType.NUMERIC)],
        [
            (f"p{t}-{i}", f"t{t}", 100 + i)
            for t in range(n_teams)
            for i in range(n_players_per_team)
        ],
        primary_key="player_id",
    )
    return Database(
        "sports",
        [players, teams],
        [ForeignKey("players", "team", "teams", "team_id")],
    )


class TestRegistry:
    """The backend names: a closed set, spelled one way."""

    def test_backends_are_a_closed_set_in_fixed_order(self):
        assert BACKENDS == ("columnar", "row", "sqlite")

    def test_canonical_name_normalizes_spelling(self):
        assert canonical_backend_name("  SQLite ") == "sqlite"
        assert canonical_backend_name("columnar") == "columnar"

    def test_enum_member_is_not_a_backend_name(self):
        with pytest.raises(QueryError, match="unknown storage backend"):
            canonical_backend_name(ExecutionBackend.ROW)

    def test_unknown_backend_is_a_query_error(self):
        with pytest.raises(QueryError, match="unknown storage backend"):
            canonical_backend_name("parquet")

    def test_adapter_classes(self):
        classes = (ColumnarAdapter, RowAdapter, SqliteAdapter)
        for backend, cls in zip(BACKENDS, classes):
            adapter = create_adapter(backend, small_db())
            try:
                assert type(adapter) is cls and cls.name == backend
            finally:
                adapter.close()

    def test_create_adapter_instantiates(self):
        adapter = create_adapter("sqlite", small_db())
        try:
            assert adapter.name == "sqlite"
        finally:
            adapter.close()


class TestCapabilities:
    """``pushdown`` is the one capability the engine reads."""

    def test_in_memory_adapters_do_not_push_down(self):
        for cls in (ColumnarAdapter, RowAdapter):
            assert not cls.pushdown

    def test_sql_adapters_push_down_and_paginate(self):
        assert SqliteAdapter.pushdown
        assert SqliteAdapter.page_size > 0

    def test_engine_exposes_adapter(self):
        engine = QueryEngine(small_db(), EngineConfig(backend="sqlite"))
        assert engine.backend == "sqlite"
        assert engine.adapter.pushdown
        engine.close()


class TestEngineConfig:
    def test_backend_canonicalized_at_construction(self):
        assert EngineConfig(backend="SQLITE").backend == "sqlite"

    def test_cache_dir_fspathed(self, tmp_path):
        assert EngineConfig(cache_dir=tmp_path).cache_dir == str(tmp_path)

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(QueryError):
            EngineConfig(backend="orc")

    def test_enum_backend_rejected_eagerly(self):
        # ExecutionBackend is the in-memory JoinGraph switch, not a name.
        with pytest.raises(QueryError):
            EngineConfig(backend=ExecutionBackend.ROW)

    def test_replace_with_engine_round_trip(self):
        config = AggCheckerConfig()
        varied = config.with_engine(backend="sqlite", cache_dir=None)
        assert varied.engine.backend == "sqlite"
        # The nested engine survives an unrelated replace().
        assert replace(varied, predicate_hits=5).engine.backend == "sqlite"
        # An explicit engine= replacement wins outright.
        swapped = replace(varied, engine=ORACLE)
        assert swapped.engine.backend == "row"
        assert swapped.engine.mode is ExecutionMode.NAIVE

    def test_backend_names_the_mode(self):
        assert EngineConfig().mode is ExecutionMode.MERGED_CACHED
        assert EngineConfig(backend="sqlite").mode is ExecutionMode.MERGED_CACHED
        assert EngineConfig(backend="row") == ORACLE
        # A new backend brings its own mode through with_engine ...
        oracle = AggCheckerConfig().with_engine(backend="row")
        assert oracle.engine == ORACLE
        assert oracle.with_engine(backend="columnar").engine == EngineConfig()
        # ... but a named mode the backend does not run is refused.
        with pytest.raises(QueryError):
            AggCheckerConfig().with_engine(
                backend="row", mode=ExecutionMode.MERGED_CACHED
            )

    def test_positional_mode_is_gone(self):
        with pytest.raises(AttributeError):
            QueryEngine(small_db(), ExecutionMode.NAIVE)

    def test_flat_keywords_are_gone(self, tmp_path):
        with pytest.raises(TypeError):
            QueryEngine(small_db(), backend="row")
        with pytest.raises(TypeError):
            AggCheckerConfig(cache_dir=str(tmp_path))


class TestCardinalityEstimates:
    @pytest.mark.parametrize("backend", ["columnar", "row", "sqlite"])
    def test_estimate_bounds_exact(self, backend):
        db = fanout_db()
        adapter = create_adapter(backend, db)
        try:
            tables = frozenset(["players", "teams"])
            estimate = adapter.estimated_cardinality(tables)
            exact = adapter.exact_cardinality(tables)
            assert estimate >= exact == 12
        finally:
            adapter.close()

    def test_in_memory_estimate_accounts_for_fanout(self):
        # Joining teams -> players multiplies by the players-per-team
        # multiplicity; the old len(first_table) estimate missed this.
        db = fanout_db(n_players_per_team=4, n_teams=3)
        adapter = create_adapter("columnar", db)
        tables = frozenset(["players", "teams"])
        assert adapter.estimated_cardinality(tables) >= 12

    def test_estimate_cube_cells_uses_row_bound(self):
        dims = ("a", "b", "c")
        literals = {d: frozenset({"x", "y", "z"}) for d in dims}
        unbounded = estimate_cube_cells(dims, literals)
        assert unbounded == 5**3
        # 2 rows can produce at most 2 base groups, each contributing to
        # 2^d rollup arms.
        assert estimate_cube_cells(dims, literals, estimated_rows=2) == 2 * 8
        # A huge row count never raises the literal-based bound.
        assert (
            estimate_cube_cells(dims, literals, estimated_rows=10**9)
            == unbounded
        )
        assert estimate_cube_cells(dims, literals, estimated_rows=0) == 0

    @pytest.mark.parametrize("backend", ["columnar", "row"])
    def test_budget_rejects_before_materializing(self, backend):
        db = fanout_db()
        engine = QueryEngine(db, EngineConfig(backend=backend))
        engine.budget = ResourceBudget(max_rows=3)
        query = parse_query(
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
            db,
        )
        with pytest.raises(BudgetExceeded):
            engine.evaluate([query])
        assert engine.stats.budget_rejections == 1
        engine.close()

    def test_pushdown_adapter_exempt_from_rows_budget(self):
        # max_rows bounds Python-side materialization; the pushdown tier
        # never materializes the relation, so the same budget that rejects
        # the in-memory join admits it — this is the out-of-core contract.
        db = fanout_db()
        engine = QueryEngine(db, EngineConfig(backend="sqlite"))
        engine.budget = ResourceBudget(max_rows=3)
        query = parse_query(
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
            db,
        )
        results = engine.evaluate([query])
        assert results[query] == sum(100 + i for _ in range(3) for i in range(4))
        assert engine.stats.budget_rejections == 0
        assert engine.stats.rows_materialized == 0
        engine.close()

    def test_budget_admits_exactly_at_the_limit(self):
        db = fanout_db()
        engine = QueryEngine(db, EngineConfig(backend="columnar"))
        engine.budget = ResourceBudget(max_rows=12)
        query = parse_query(
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
            db,
        )
        results = engine.evaluate([query])
        assert results[query] == sum(100 + i for _ in range(3) for i in range(4))
        assert engine.stats.budget_rejections == 0
        engine.close()


class TestEngineStatsSurface:
    def test_pushdown_counters_flow_into_stats(self):
        db = small_db()
        engine = QueryEngine(db, EngineConfig(backend="sqlite"))
        query = parse_query("SELECT Count(*) FROM events WHERE kind = 'a'", db)
        assert engine.evaluate([query])[query] == 2
        assert engine.stats.pushdown_queries >= 1
        assert engine.stats.rows_materialized == 0
        engine.close()

    def test_in_memory_backend_counts_materialization(self):
        db = small_db()
        engine = QueryEngine(db, EngineConfig(backend="columnar"))
        query = parse_query("SELECT Count(*) FROM events WHERE kind = 'a'", db)
        engine.evaluate([query])
        assert engine.stats.pushdown_queries == 0
        assert engine.stats.rows_materialized == len(db.tables[0].rows)
