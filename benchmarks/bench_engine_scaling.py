"""Engine scaling: cube execution over synthetic relations, both backends.

Sweeps dictionary-encoded (columnar) vs tuple-at-a-time (row-wise) cube
execution across relation sizes and writes ``BENCH_engine.json`` (rows/sec
per backend, columnar speedup) so the performance trajectory is tracked
from this PR onward. The timed unit is one cube pass over a pre-materialized
relation — the operation the merged engine repeats for every batch — so the
numbers isolate the execution kernel from join materialization. What a cold
verification pays before its first cube pass is timed beside it:
``encode_seconds`` is raw rows to ``ColumnarRelation`` on a fresh join graph.

Row counts come from ``BENCH_ENGINE_SIZES`` (comma separated; default
``1000,10000,100000``) so CI can smoke-run a small sweep.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

from repro.db import (
    AggregateFunction,
    AggregateSpec,
    Column,
    ColumnRef,
    ColumnType,
    CubeQuery,
    Database,
    ExecutionBackend,
    STAR,
    Table,
    execute_cube,
)
from repro.db.joins import JoinGraph
from repro.harness.reporting import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_engine.json"

TEAMS = [f"team{i:02d}" for i in range(24)]
STATUSES = ["active", "suspended", "retired", "injured"]

CATEGORY = ColumnRef("events", "team")
STATUS = ColumnRef("events", "status")
SCORE = ColumnRef("events", "score")

SPECS = (
    AggregateSpec(AggregateFunction.COUNT, STAR),
    AggregateSpec(AggregateFunction.COUNT, SCORE),
    AggregateSpec(AggregateFunction.SUM, SCORE),
    AggregateSpec(AggregateFunction.AVG, SCORE),
    AggregateSpec(AggregateFunction.MIN, SCORE),
    AggregateSpec(AggregateFunction.MAX, SCORE),
    AggregateSpec(AggregateFunction.COUNT_DISTINCT, STATUS),
)


def _sizes() -> list[int]:
    raw = os.environ.get("BENCH_ENGINE_SIZES", "1000,10000,100000")
    return [int(part) for part in raw.split(",") if part.strip()]


def synthetic_database(n_rows: int, seed: int = 7) -> Database:
    """One wide fact table with NULLs and messy numeric strings mixed in."""
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
    table = Table(
        "events",
        [
            Column("team"),
            Column("status"),
            Column("score", ColumnType.NUMERIC),
        ],
        rows,
    )
    return Database("synthetic", [table])


def scaling_cube() -> CubeQuery:
    dims = tuple(sorted([CATEGORY, STATUS]))
    literal_map = {
        CATEGORY: frozenset(TEAMS[:8]),
        STATUS: frozenset(STATUSES[:2]),
    }
    return CubeQuery(
        tables=frozenset({"events"}),
        dimensions=dims,
        literals=tuple((dim, literal_map[dim]) for dim in dims),
        aggregates=SPECS,
    )


def time_backend(database: Database, backend: ExecutionBackend, repeats: int = 3) -> float:
    """Best-of-N wall clock for one cube pass on a pre-materialized relation."""
    graph = JoinGraph(database, backend=backend)
    graph.relation({"events"})  # materialize outside the timed region
    cube = scaling_cube()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        execute_cube(database, cube, graph)
        best = min(best, time.perf_counter() - started)
    return best


def time_encode(database: Database, repeats: int = 3) -> float:
    """Best-of-N wall clock from raw rows to the columnar relation."""
    best = float("inf")
    for _ in range(repeats):
        graph = JoinGraph(database, backend=ExecutionBackend.COLUMNAR)
        started = time.perf_counter()
        graph.relation({"events"})
        best = min(best, time.perf_counter() - started)
    return best


def test_engine_scaling(capsys):
    sizes = _sizes()
    results = []
    rows_out = []
    for n_rows in sizes:
        database = synthetic_database(n_rows)
        row_seconds = time_backend(database, ExecutionBackend.ROW)
        col_seconds = time_backend(database, ExecutionBackend.COLUMNAR)
        encode_seconds = time_encode(database)
        speedup = row_seconds / max(col_seconds, 1e-9)
        results.append(
            {
                "rows": n_rows,
                "row_seconds": round(row_seconds, 6),
                "columnar_seconds": round(col_seconds, 6),
                "encode_seconds": round(encode_seconds, 6),
                "row_rows_per_sec": round(n_rows / max(row_seconds, 1e-9)),
                "columnar_rows_per_sec": round(n_rows / max(col_seconds, 1e-9)),
                "encode_rows_per_sec": round(n_rows / max(encode_seconds, 1e-9)),
                "speedup": round(speedup, 2),
            }
        )
        rows_out.append(
            [
                f"{n_rows:,}",
                f"{row_seconds * 1e3:.1f}ms",
                f"{col_seconds * 1e3:.1f}ms",
                f"{encode_seconds * 1e3:.1f}ms",
                f"{n_rows / max(col_seconds, 1e-9):,.0f}",
                f"x{speedup:.1f}",
            ]
        )
    payload = {
        "benchmark": "cube execution over synthetic relations",
        "aggregates": [str(spec) for spec in SPECS],
        "results": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    table = format_table(
        "Engine scaling: cube execution (row-wise vs columnar)",
        ["Rows", "Row-wise", "Columnar", "Encode", "Columnar rows/s", "Speedup"],
        rows_out,
    )
    with capsys.disabled():
        print("\n" + table)
        print(f"written: {OUTPUT}")

    # Acceptance: at the 100k-row point the vectorized backend must beat the
    # row-wise backend by at least 5x (skipped for smoke-sized sweeps).
    largest = results[-1]
    if largest["rows"] >= 100_000:
        assert largest["speedup"] >= 5.0, largest
