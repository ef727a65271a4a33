"""SQL pushdown vs in-memory cube execution.

Sweeps the same synthetic claim-query workload over the ``columnar`` and
``sqlite`` cube routes (both ``MERGED_CACHED``) and writes
``BENCH_sql.json``:

- per-size engine timings, clocked from before ``QueryEngine(...)`` to the
  end of the first evaluate() on that fresh engine, so work an adapter
  does at construction or on first use (the sqlite tier's shadow columns)
  is inside the number; the sqlite leg runs **out-of-core** against a
  SQLite file, and ``sqlite_build_seconds`` is the one-off part of
  ``sqlite_seconds``: that first run minus a second evaluate() of the same
  batch on the same engine with a fresh result cache (so the second run
  re-executes every statement over the shadows already built). The
  headline is ``sqlite_speedup_vs_columnar`` at the largest size;
- the acceptance proof: at the largest size the file-backed sqlite engine
  verifies the whole batch under a materialization budget orders of
  magnitude below the table, with ``EngineStats.rows_materialized == 0``;
- value identity at every size against the NAIVE × row oracle (computed
  once per size, untimed) under the rule of ``tests/db/oracle.py``, and
  full-corpus verdict identity sqlite-vs-columnar.

Row counts come from ``BENCH_SQL_SIZES`` (comma separated; default
``10000,100000,1000000``) so CI can smoke-run a small sweep.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import tempfile
import time
from pathlib import Path

from repro.budget import ResourceBudget
from repro.db import (
    Column,
    ColumnType,
    Database,
    EngineConfig,
    QueryEngine,
    Table,
    parse_query,
)
from repro.db.adapters import load_sqlite_database
from repro.db.cache import ResultCache
from repro.harness.reporting import format_table

from tests.db.oracle import assert_matches_oracle, oracle_values, rolled_up_queries

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_sql.json"

TEAMS = [f"team{i:02d}" for i in range(24)]
STATUSES = ["active", "suspended", "retired", "injured"]

QUERY_SQLS = (
    "SELECT Count(*) FROM events WHERE team = 'team03'",
    "SELECT Count(*) FROM events WHERE team = 'team03' AND status = 'active'",
    "SELECT Sum(score) FROM events WHERE status = 'suspended'",
    "SELECT Avg(score) FROM events WHERE team = 'team11'",
    "SELECT Min(score) FROM events WHERE status = 'retired'",
    "SELECT Max(score) FROM events WHERE team = 'team17'",
    "SELECT CountDistinct(team) FROM events",
    "SELECT Percentage(*) FROM events WHERE status = 'active'",
)

#: The out-of-core budget: three orders of magnitude under the default
#: largest sweep size.
MAX_ROWS_BUDGET = 1_000


def _sizes() -> list[int]:
    raw = os.environ.get("BENCH_SQL_SIZES", "10000,100000,1000000")
    return [int(part) for part in raw.split(",") if part.strip()]


def synthetic_rows(n_rows: int, seed: int = 7) -> list[tuple]:
    """NULLs and messy numeric strings mixed in."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n_rows):
        team = rng.choice(TEAMS) if rng.random() > 0.05 else None
        status = rng.choice(STATUSES)
        roll = rng.random()
        if roll < 0.05:
            score = None
        elif roll < 0.08:
            score = "n/a"
        elif roll < 0.12:
            score = f"{rng.randint(1, 9)},{rng.randint(100, 999)}"
        else:
            score = rng.randint(0, 10_000)
        rows.append((team, status, score))
    return rows


COLUMNS = [
    Column("team"),
    Column("status"),
    Column("score", ColumnType.NUMERIC),
]


def write_sqlite_file(rows: list[tuple], path: str) -> str:
    connection = sqlite3.connect(path)
    try:
        connection.execute("CREATE TABLE events (team, status, score)")
        connection.executemany("INSERT INTO events VALUES (?, ?, ?)", rows)
        connection.commit()
    finally:
        connection.close()
    return path


def time_evaluate(database: Database, backend: str, repeats: int):
    """Best-of-N construction + first evaluate() on a fresh engine.

    Returns ``(seconds, build_seconds, values)``; ``build_seconds`` is
    what the first run cost over a repeat on the same engine with a fresh
    result cache.
    """
    best, build, values = float("inf"), 0.0, None
    for _ in range(repeats):
        queries = [parse_query(sql, database) for sql in QUERY_SQLS]
        started = time.perf_counter()
        engine = QueryEngine(database, EngineConfig(backend=backend))
        results = engine.evaluate(queries)
        first = time.perf_counter() - started
        engine.cache = ResultCache()
        started = time.perf_counter()
        engine.evaluate(queries)
        again = time.perf_counter() - started
        engine.close()
        if first < best:
            best, build = first, max(first - again, 0.0)
        values = [results[query] for query in queries]
    return best, build, values


def assert_matches(reference, actual, backend: str, database, context: str) -> None:
    """The oracle's values, as ``backend``'s cube spells them."""
    assert len(reference) == len(actual)
    queries = [parse_query(sql, database) for sql in QUERY_SQLS]
    rolled_up = rolled_up_queries(database, queries)
    for query, expected, got in zip(queries, reference, actual):
        assert_matches_oracle(
            query, expected, got, backend, f"{context} {query}",
            query in rolled_up,
        )


def out_of_core_proof(path: str, n_rows: int, reference) -> dict:
    """Verify the whole batch over the file under a tiny budget."""
    database = load_sqlite_database(path)
    engine = QueryEngine(database, EngineConfig(backend="sqlite"))
    engine.budget = ResourceBudget(max_rows=MAX_ROWS_BUDGET)
    queries = [parse_query(sql, database) for sql in QUERY_SQLS]
    results = engine.evaluate(queries)
    assert_matches(
        reference, [results[query] for query in queries], "sqlite", database,
        "out-of-core",
    )
    stats = engine.stats
    assert stats.rows_materialized == 0, stats
    assert stats.pushdown_queries >= 1, stats
    assert stats.budget_rejections == 0, stats
    engine.close()
    return {
        "table_rows": n_rows,
        "max_rows_budget": MAX_ROWS_BUDGET,
        "rows_materialized": stats.rows_materialized,
        "pushdown_queries": stats.pushdown_queries,
        "pushdown_ok": 1.0 if stats.rows_materialized == 0 else 0.0,
    }


def verdict_identity() -> dict:
    """Full-corpus verdicts sqlite-vs-columnar."""
    from repro.core.config import AggCheckerConfig
    from repro.corpus import generate_corpus
    from repro.harness import run_corpus

    corpus = generate_corpus()
    reference = run_corpus(
        corpus, AggCheckerConfig(engine=EngineConfig(backend="columnar"))
    )
    pushdown = run_corpus(
        corpus, AggCheckerConfig(engine=EngineConfig(backend="sqlite"))
    )
    verdicts = 0
    for expected, actual in zip(reference.results, pushdown.results):
        left = [
            (v.claim.mention.text, v.status, v.hover_text)
            for v in expected.report.verdicts
        ]
        right = [
            (v.claim.mention.text, v.status, v.hover_text)
            for v in actual.report.verdicts
        ]
        assert left == right, expected.case.name
        verdicts += len(left)
    return {
        "cases": len(reference.results),
        "verdicts": verdicts,
        "identical": 1.0,
    }


def test_sql_backend_scaling(capsys):
    sizes = _sizes()
    results = []
    rows_out = []
    proof = None
    with tempfile.TemporaryDirectory(prefix="bench-sql-") as tmp:
        for n_rows in sizes:
            rows = synthetic_rows(n_rows)
            database = Database(
                "synthetic", [Table("events", COLUMNS, rows)]
            )
            path = write_sqlite_file(rows, os.path.join(tmp, f"{n_rows}.sqlite"))
            file_db = load_sqlite_database(path)
            repeats = 3 if n_rows <= 100_000 else 2
            queries = [parse_query(sql, database) for sql in QUERY_SQLS]
            expected = oracle_values(database, queries)
            reference = [expected[query] for query in queries]
            col_seconds, _, col_values = time_evaluate(
                database, "columnar", repeats
            )
            sql_seconds, sql_build, sql_values = time_evaluate(
                file_db, "sqlite", repeats
            )
            assert_matches(
                reference, col_values, "columnar", database, f"columnar@{n_rows}"
            )
            assert_matches(
                reference, sql_values, "sqlite", database, f"sqlite@{n_rows}"
            )
            speedup = col_seconds / max(sql_seconds, 1e-9)
            results.append(
                {
                    "rows": n_rows,
                    "columnar_seconds": round(col_seconds, 6),
                    "sqlite_seconds": round(sql_seconds, 6),
                    "sqlite_build_seconds": round(sql_build, 6),
                    "sqlite_rows_per_sec": round(
                        n_rows / max(sql_seconds, 1e-9)
                    ),
                    "sqlite_speedup_vs_columnar": round(speedup, 2),
                }
            )
            rows_out.append(
                [
                    f"{n_rows:,}",
                    f"{col_seconds * 1e3:.1f}ms",
                    f"{sql_seconds * 1e3:.1f}ms",
                    f"{sql_build * 1e3:.1f}ms",
                    f"x{speedup:.2f}",
                ]
            )
        # Acceptance proof at the largest size: out-of-core verification
        # under a budget far below the table, zero Python materialization.
        proof = out_of_core_proof(path, sizes[-1], reference)
    identity = verdict_identity()
    payload = {
        "benchmark": "storage adapters: SQL pushdown vs in-memory cubes",
        "queries": list(QUERY_SQLS),
        "results": results,
        "out_of_core": proof,
        "verdict_identity": identity,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    table = format_table(
        "SQL backend scaling (columnar vs sqlite pushdown, merged cubes)",
        ["Rows", "Columnar", "SQLite", "of it build", "SQLite vs columnar"],
        rows_out,
    )
    with capsys.disabled():
        print("\n" + table)
        print(
            f"verdict identity: {identity['verdicts']} verdicts across "
            f"{identity['cases']} cases, all equal"
        )
        print(
            f"out-of-core: {proof['table_rows']:,} rows verified under "
            f"max_rows={proof['max_rows_budget']:,}, "
            f"rows_materialized={proof['rows_materialized']}"
        )
        print(f"written: {OUTPUT}")
