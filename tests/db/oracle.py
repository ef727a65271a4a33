"""NAIVE × row is the oracle; the named ways a cube route may differ from it.

Three (mode, backend) pairs exist. ``NAIVE`` × ``row`` answers one query at
a time with the row-wise executor (:mod:`repro.db.executor`);
``MERGED_CACHED`` × ``columnar``/``sqlite`` answers every query from cube
cells.
Every suite that holds a cube route to the oracle compares through
:func:`assert_matches_oracle`: exact and type-strict (floats by ``repr``),
except for the clauses below. Each clause is a difference between the
per-query executor and a cube that the code has on purpose, and
``tests/db/test_oracle.py`` shows each one on a fixed input. ROADMAP item 1
(one rule for "equal") changes these clauses and nothing else.

- :data:`SUM_IS_FLOAT` — a cube SUM over integer cells is a float: every
  cube route accumulates in a float (``bincount(weights=...)``, SQL
  ``CAST(... AS DOUBLE)``); the executor keeps an integer total.
- :data:`FLOAT64_EXTREMES` — on a route that holds numbers as float64
  (columnar arrays) MIN/MAX is a float equal to the oracle's extreme: an
  integer comes back as its float, and among equal extremes (``0``,
  ``0.0``, ``-0.0``) the columnar kernel keeps the last one its dictionary
  saw where the executor keeps the earliest row's.
- :data:`ROLLUP_ADDS_SUBTOTALS` — a rolled-up cell (a key with ``ALL`` in
  it) of the columnar cube adds per-group subtotals, so its float SUM/AVG
  can differ from the row-order sum in the last bits; compared to a
  relative 1e-9. A one-group cell adds in row order and compares exactly.
- :data:`PREDICATE_BY_LITERAL` — a non-string predicate value selects by
  number under ``NAIVE`` (``0 == 0.0 == -0.0``) and by normalized literal in
  a cube. No comparison absorbs this one: inputs that could show it are kept
  out of the randomized suites (``nullheavy_databases(signed_zeros=False)``).
  ``QueryEngine.evaluate_one``, the route a hand-written query takes, first
  maps such a value to the one literal it equals by number.
"""

from __future__ import annotations

import math
from itertools import product

from repro.db import (
    AggregateFunction,
    EngineConfig,
    ExecutionMode,
    Predicate,
    QueryEngine,
    SimpleAggregateQuery,
    create_adapter,
)
from repro.db.cube import ALL
from repro.db.engine import ORACLE_BACKEND

#: The oracle's spelling.
ORACLE = EngineConfig(mode=ExecutionMode.NAIVE, backend=ORACLE_BACKEND)

SUM_IS_FLOAT = "a cube SUM over integer cells is a float"
FLOAT64_EXTREMES = "a float64 route's MIN/MAX is a float equal to the extreme"
ROLLUP_ADDS_SUBTOTALS = "a rolled-up float SUM/AVG adds per-group subtotals"
PREDICATE_BY_LITERAL = "a cube matches a non-string predicate value by literal"

#: Backends whose number image is float64 (:data:`FLOAT64_EXTREMES`).
FLOAT64_BACKENDS = frozenset({"columnar"})
#: Backends whose rolled-up cells add group subtotals
#: (:data:`ROLLUP_ADDS_SUBTOTALS`); each SQL arm rescans its rows in order.
SUBTOTAL_BACKENDS = frozenset({"columnar"})

_EXTREMES = (AggregateFunction.MIN, AggregateFunction.MAX)
_SUMS = (AggregateFunction.SUM, AggregateFunction.AVG)


def oracle_values(database, queries) -> dict:
    """``{query: value}`` from a fresh NAIVE × row engine."""
    engine = QueryEngine(database, ORACLE)
    try:
        return engine.evaluate(queries)
    finally:
        engine.close()


def clauses_for(
    function, backend: str, naive, rolled_up: bool = False
) -> tuple[str, ...]:
    """The clauses under which ``backend``'s cube may spell ``naive``,
    the oracle's value of an aggregate ``function``, differently (none:
    the oracle's own backend runs no cube). ``rolled_up`` says the value
    was read from a cell with ``ALL`` in its key."""
    if backend == ORACLE_BACKEND:
        return ()
    found = []
    if type(naive) is int and function is AggregateFunction.SUM:
        found.append(SUM_IS_FLOAT)
    if naive is not None and function in _EXTREMES and backend in FLOAT64_BACKENDS:
        found.append(FLOAT64_EXTREMES)
    if rolled_up and function in _SUMS and backend in SUBTOTAL_BACKENDS:
        found.append(ROLLUP_ADDS_SUBTOTALS)
    return tuple(found)


def rolled_up_queries(database, queries) -> set:
    """The queries of one engine batch a cube answers from a rolled-up
    cell: the engine covers a query's predicate columns with the largest
    column set of its base relation that contains them, so a query reads
    an ``ALL`` cell exactly when the batch has a query over the same
    tables whose predicate columns strictly contain its own."""

    def tables(query):
        return query.referenced_tables() or frozenset(
            {database.single_table().name}
        )

    column_sets: dict[frozenset, set] = {}
    for query in queries:
        column_sets.setdefault(tables(query), set()).add(query.predicate_columns)
    return {
        query
        for query in queries
        if any(
            query.predicate_columns < other
            for other in column_sets[tables(query)]
        )
    }


def assert_bit_equal(expected, actual, context: str = "") -> None:
    """Same value, same type; floats compared by repr (NaN, -0.0)."""
    assert type(expected) is type(actual), (
        f"{context}: type {type(expected).__name__} != {type(actual).__name__}"
        f" ({expected!r} vs {actual!r})"
    )
    if isinstance(expected, float):
        assert repr(expected) == repr(actual), context
    else:
        assert expected == actual, f"{context}: {expected!r} != {actual!r}"


def assert_matches_oracle(
    function, naive, actual, backend: str, context="", rolled_up=False
) -> None:
    """``actual`` (from ``backend``'s cube, read from a rolled-up cell if
    ``rolled_up``) against ``naive`` (the oracle's value of an aggregate
    ``function``), exact but for the clauses."""
    if isinstance(function, SimpleAggregateQuery):
        function = function.aggregate.function
    clauses = clauses_for(function, backend, naive, rolled_up)
    if SUM_IS_FLOAT in clauses:
        naive = float(naive)
    if FLOAT64_EXTREMES in clauses:
        assert type(actual) is float and actual == naive, (
            f"{context}: {naive!r} vs {actual!r}"
        )
        return
    if (
        ROLLUP_ADDS_SUBTOTALS in clauses
        and type(naive) is float
        and type(actual) is float
        and math.isfinite(naive)
    ):
        assert math.isclose(actual, naive, rel_tol=1e-9), (
            f"{context}: {naive!r} vs {actual!r}"
        )
        return
    assert_bit_equal(naive, actual, context)


def assert_engine_matches_oracle(database, queries, backend: str, repeat=1):
    """Evaluate ``queries`` on ``backend``'s engine (``repeat`` times, so
    later rounds read the result cache) and hold every value to the
    oracle's. Returns a copy of the engine's stats after each round."""
    expected = oracle_values(database, queries)
    rolled_up = rolled_up_queries(database, queries)
    engine = QueryEngine(database, EngineConfig(backend=backend))
    rounds = []
    try:
        for _ in range(repeat):
            actual = engine.evaluate(queries)
            for query in set(queries):
                assert_matches_oracle(
                    query, expected[query], actual[query], backend,
                    f"{backend} {query}", query in rolled_up,
                )
            rounds.append(engine.stats.copy())
        return rounds
    finally:
        engine.close()


def run_cube(database, cube, backend: str = "columnar"):
    """Execute ``cube`` on a fresh ``backend`` adapter."""
    adapter = create_adapter(backend, database)
    try:
        return adapter.execute_cube(cube)
    finally:
        adapter.close()


def cell_query(cube, key, spec) -> SimpleAggregateQuery:
    """The Simple Aggregate Query a cube cell answers: one predicate per
    dimension the key restricts (the default bucket has none)."""
    predicates = tuple(
        Predicate(dim, part)
        for dim, part in zip(cube.dimensions, key)
        if part is not ALL
    )
    return SimpleAggregateQuery(spec, predicates)


def assert_cube_matches_oracle(
    database, cube, result, backend: str, sample: int | None = None
) -> None:
    """Every cell a query can name — each dimension ``ALL`` or one of its
    literals — holds the oracle's value of that query; the cube has a cell
    for such a key exactly when the oracle counts a row for it. Cubes over
    one table only (a bare ``Count(*)`` must name its relation). ``sample``
    caps the keys checked, evenly spaced from the all-``ALL`` key on: the
    oracle runs one query per key and aggregate."""
    from repro.db import STAR, AggregateSpec

    count = AggregateSpec(AggregateFunction.COUNT, STAR)
    choices = [(ALL, *sorted(literals)) for _, literals in cube.literals]
    keys = list(product(*choices))
    if sample is not None and len(keys) > sample:
        keys = keys[:: -(-len(keys) // sample)]
    specs = [spec for spec in cube.aggregates if spec != count]
    queries = {
        (key, spec): cell_query(cube, key, spec)
        for key in keys
        for spec in [count, *specs]
    }
    expected = oracle_values(database, list(queries.values()))
    # Every aggregate has a cell for the same keys: the non-empty groups.
    cell_keys = result.cells_for(cube.aggregates[0]).keys()
    for spec in cube.aggregates:
        assert result.cells_for(spec).keys() == cell_keys, spec
    for key in keys:
        rows = expected[queries[key, count]]
        assert (key in cell_keys) == (rows > 0), (key, rows)
        for spec in cube.aggregates:
            query = queries[key, spec]
            assert_matches_oracle(
                query,
                expected[query],
                result.value(
                    spec,
                    {
                        dim: part
                        for dim, part in zip(cube.dimensions, key)
                        if part is not ALL
                    },
                ),
                backend,
                f"{backend} {key} {spec}",
                ALL in key,
            )
