"""Randomized cross-checks of the columnar backend against the row-wise oracle.

The row-wise executor, join, and cube implementations are the reference
semantics; every test here asserts that the dictionary-encoded columnar
backend produces identical results — cell-for-cell for cubes, value-for-value
for SimpleAggregateQueries — on randomized databases including NULL-heavy
columns, messy numeric strings, dangling join keys, and empty groups.
Floats compare with ``==``: the executors and a cube cell read from one
group add in row order. A rolled-up cell adds per-group subtotals, so the
float bit-identity tests evaluate one query per engine.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    CubeQuery,
    EngineConfig,
    ExecutionBackend,
    ExecutionMode,
    QueryEngine,
    STAR,
    execute_cube,
    execute_query,
    parse_query,
)
from repro.db.columnar import ColumnarRelation
from repro.db.joins import JoinGraph

from tests.db.strategies import (
    CATEGORIES,
    FLAGS,
    claim_queries,
    conditional_queries,
    joined_databases,
    joined_queries,
    nullheavy_databases,
    small_databases,
)

CATEGORY = ColumnRef("facts", "category")
FLAG = ColumnRef("facts", "flag")
AMOUNT = ColumnRef("facts", "amount")

#: All basis aggregates over the facts table (star + every real column).
FACTS_SPECS = (
    AggregateSpec(AggregateFunction.COUNT, STAR),
    AggregateSpec(AggregateFunction.COUNT, AMOUNT),
    AggregateSpec(AggregateFunction.COUNT_DISTINCT, CATEGORY),
    AggregateSpec(AggregateFunction.COUNT_DISTINCT, AMOUNT),
    AggregateSpec(AggregateFunction.SUM, AMOUNT),
    AggregateSpec(AggregateFunction.AVG, AMOUNT),
    AggregateSpec(AggregateFunction.MIN, AMOUNT),
    AggregateSpec(AggregateFunction.MAX, AMOUNT),
)


def assert_value_equal(expected, actual, context=""):
    if expected is None:
        assert actual is None, f"{context}: row-wise None, columnar {actual!r}"
    else:
        assert actual is not None, f"{context}: row-wise {expected!r}, columnar None"
        assert actual == expected, context


def assert_cube_results_equal(row_result, col_result):
    """Cell-for-cell equality: same keys, same specs, same values."""
    assert set(col_result.cells) == set(row_result.cells)
    for key, row_cell in row_result.cells.items():
        col_cell = col_result.cells[key]
        assert set(col_cell) == set(row_cell)
        for spec, expected in row_cell.items():
            assert_value_equal(expected, col_cell[spec], f"{key} {spec}")


def both_graphs(database):
    return (
        JoinGraph(database, backend=ExecutionBackend.ROW),
        JoinGraph(database, backend=ExecutionBackend.COLUMNAR),
    )


@st.composite
def facts_cubes(draw) -> CubeQuery:
    """A random cube over the facts table.

    Literal sets may include values that never occur (empty groups) and the
    dimension list may be empty (pure ALL-cell cube).
    """
    dims = draw(
        st.sets(st.sampled_from([CATEGORY, FLAG]), min_size=0, max_size=2)
    )
    ordered = tuple(sorted(dims))
    literal_pool = {
        CATEGORY: CATEGORIES + ["absent-literal"],
        FLAG: FLAGS + ["absent-literal"],
    }
    literals = tuple(
        (
            dim,
            frozenset(
                draw(st.sets(st.sampled_from(literal_pool[dim]), min_size=1, max_size=3))
            ),
        )
        for dim in ordered
    )
    n_specs = draw(st.integers(min_value=1, max_value=len(FACTS_SPECS)))
    return CubeQuery(
        tables=frozenset({"facts"}),
        dimensions=ordered,
        literals=literals,
        aggregates=FACTS_SPECS[:n_specs],
    )


@settings(max_examples=60, deadline=None)
@given(database=small_databases() | nullheavy_databases(), cube=facts_cubes())
def test_cube_matches_rowwise_oracle(database, cube):
    """Property: columnar cube cells equal row-wise cube cells exactly."""
    row_graph, col_graph = both_graphs(database)
    row_result = execute_cube(database, cube, row_graph)
    col_result = execute_cube(database, cube, col_graph)
    assert isinstance(col_graph.relation({"facts"}), ColumnarRelation)
    assert_cube_results_equal(row_result, col_result)


@settings(max_examples=60, deadline=None)
@given(
    database=small_databases() | nullheavy_databases(),
    query=claim_queries() | conditional_queries(),
)
def test_simple_queries_match_rowwise_oracle(database, query):
    """Property: execute_query agrees between backends on random inputs."""
    row_graph, col_graph = both_graphs(database)
    expected = execute_query(database, query, row_graph)
    actual = execute_query(database, query, col_graph)
    assert_value_equal(expected, actual, str(query))


@settings(max_examples=40, deadline=None)
@given(database=joined_databases(), queries=st.lists(joined_queries(), min_size=1, max_size=8))
def test_joined_queries_match_rowwise_oracle(database, queries):
    """Property: hash join on key codes reproduces the row-wise equi-join
    (NULL keys and dangling foreign keys drop identically) for every mode."""
    for mode in (ExecutionMode.NAIVE, ExecutionMode.MERGED_CACHED):
        row = QueryEngine(database, EngineConfig(mode=mode, backend="row")).evaluate(queries)
        col = QueryEngine(database, EngineConfig(mode=mode, backend="columnar")).evaluate(
            queries
        )
        for query in set(queries):
            assert_value_equal(row[query], col[query], f"{mode} {query}")


@settings(max_examples=40, deadline=None)
@given(
    database=small_databases() | nullheavy_databases(),
    queries=st.lists(
        claim_queries() | conditional_queries(), min_size=1, max_size=10
    ),
)
def test_engine_modes_match_across_backends(database, queries):
    """Property: the full engine ladder agrees between backends, including
    repeat evaluation through the result cache."""
    naive_row = QueryEngine(database, EngineConfig(mode=ExecutionMode.NAIVE, backend="row"
    )).evaluate(queries)
    engine = QueryEngine(database, EngineConfig(mode=ExecutionMode.MERGED_CACHED, backend="columnar"
    ))
    engine.evaluate(queries)  # populate the cache
    cached = engine.evaluate(queries)  # answer from cached columnar cells
    for query in set(queries):
        assert_value_equal(naive_row[query], cached[query], str(query))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from("ab"),
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        ),
        min_size=8,
        max_size=40,
    ),
    function=st.sampled_from(["Sum", "Avg"]),
    where=st.sampled_from(["", " WHERE category = 'a'"]),
)
def test_random_float_sums_are_bit_identical(rows, function, where):
    """Property: SUM and AVG over random floats have the same bits on the
    row oracle, NAIVE × columnar and the merged columnar cube."""
    from repro.db import Column, ColumnType, Database, Table

    database = Database(
        "floats",
        [Table("facts", [Column("category"), Column("amount", ColumnType.NUMERIC)], rows)],
    )
    query = parse_query(f"SELECT {function}(amount) FROM facts{where}", database)
    values = [
        QueryEngine(database, EngineConfig(mode=mode, backend=backend)).evaluate([query])[query]
        for mode, backend in (
            (ExecutionMode.NAIVE, "row"),
            (ExecutionMode.NAIVE, "columnar"),
            (ExecutionMode.MERGED_CACHED, "columnar"),
        )
    ]
    if values[0] is None:  # no 'a' row
        assert values == [None, None, None]
    else:
        assert [value.hex() for value in values] == [values[0].hex()] * 3, str(query)


class TestJoinStructure:
    def test_columnar_join_matches_rowwise_rows(self, star_db):
        """The joined relations have identical row multisets (checked via
        per-column value counts and the relation length)."""
        row_graph, col_graph = both_graphs(star_db)
        row_rel = row_graph.relation({"players", "teams"})
        col_rel = col_graph.relation({"players", "teams"})
        assert isinstance(col_rel, ColumnarRelation)
        assert len(col_rel) == len(row_rel)
        assert col_rel.columns == row_rel.columns
        for column in row_rel.columns:
            vector = col_rel.vector(column)
            decoded = sorted(
                vector.dictionary.values[code] for code in vector.codes
            )
            from repro.db.values import normalize_string

            expected = sorted(
                normalize_string(value) for value in row_rel.column_values(column)
            )
            assert decoded == expected

    def test_empty_relation_cube(self):
        from repro.db import Column, ColumnType, Database, Table

        database = Database(
            "empty", [Table("facts", [Column("category"), Column("amount", ColumnType.NUMERIC)])]
        )
        cube = CubeQuery(
            tables=frozenset({"facts"}),
            dimensions=(ColumnRef("facts", "category"),),
            literals=((ColumnRef("facts", "category"), frozenset({"alpha"})),),
            aggregates=(AggregateSpec(AggregateFunction.COUNT, STAR),),
        )
        row_graph, col_graph = both_graphs(database)
        assert_cube_results_equal(
            execute_cube(database, cube, row_graph),
            execute_cube(database, cube, col_graph),
        )


class TestFixedInputs:
    """Hand-picked inputs every backend and mode must agree on."""

    def test_engine_matches_rowwise(self, nfl_db):
        sqls = [
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'",
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
            "AND Category = 'gambling'",
            "SELECT Percentage(*) FROM nflsuspensions WHERE Games = 'indef'",
            "SELECT Sum(Year) FROM nflsuspensions WHERE Team = 'BAL'",
            "SELECT Avg(Year) FROM nflsuspensions",
            "SELECT Min(Year) FROM nflsuspensions WHERE Games = '16'",
            "SELECT CountDistinct(Team) FROM nflsuspensions",
            "SELECT Count(*) FROM nflsuspensions WHERE Year = 2012",
            "SELECT ConditionalProbability(*) FROM nflsuspensions "
            "WHERE Games = 'indef' AND Category = 'gambling'",
        ]
        queries = [parse_query(sql, nfl_db) for sql in sqls]
        for mode in ExecutionMode:
            row = QueryEngine(nfl_db, EngineConfig(mode=mode, backend="row")).evaluate(
                queries
            )
            col = QueryEngine(nfl_db, EngineConfig(mode=mode, backend="columnar"
            )).evaluate(queries)
            for query in queries:
                assert_value_equal(row[query], col[query], f"{mode} {query}")

    def test_join_matches_rowwise(self, star_db):
        sqls = [
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
            "SELECT Count(*) FROM players JOIN teams WHERE city = 'dallas'",
            "SELECT Avg(goals) FROM players",
        ]
        queries = [parse_query(sql, star_db) for sql in sqls]
        row = QueryEngine(star_db, EngineConfig(mode=ExecutionMode.MERGED_CACHED, backend="row"
        )).evaluate(queries)
        col = QueryEngine(star_db, EngineConfig(mode=ExecutionMode.MERGED_CACHED, backend="columnar"
        )).evaluate(queries)
        for query in queries:
            assert_value_equal(row[query], col[query], str(query))

    def test_messy_cell_cube_matches_rowwise(self):
        from repro.db import Column, ColumnType, Database, Table

        database = Database(
            "mix",
            [
                Table(
                    "facts",
                    [Column("category"), Column("amount", ColumnType.NUMERIC)],
                    [
                        ("alpha", 3),
                        ("ALPHA", None),
                        (None, "1,200"),
                        ("beta", "n/a"),
                        ("  ", 5),
                    ],
                )
            ],
        )
        cube = CubeQuery(
            tables=frozenset({"facts"}),
            dimensions=(ColumnRef("facts", "category"),),
            literals=((ColumnRef("facts", "category"), frozenset({"alpha", "missing"})),),
            aggregates=(
                AggregateSpec(AggregateFunction.COUNT, STAR),
                AggregateSpec(AggregateFunction.SUM, ColumnRef("facts", "amount")),
                AggregateSpec(
                    AggregateFunction.COUNT_DISTINCT, ColumnRef("facts", "amount")
                ),
            ),
        )
        row_graph, col_graph = both_graphs(database)
        assert_cube_results_equal(
            execute_cube(database, cube, row_graph),
            execute_cube(database, cube, col_graph),
        )

    def test_float_sums_are_bit_identical(self):
        """SUM and AVG add in row order on every route: NumPy's pairwise
        ``ndarray.sum`` would move the last bits of these totals."""
        from repro.db import Column, ColumnType, Database, Table

        amounts = [
            1e16, 0.1, -1e16, 3.3e-5, 2.5e8, 7.77, -0.3, 1e-3,
            12345.678, 0.7, 1.1e12, -2.2, 9.5e-7, 314.159, -6.02e5, 42.0,
        ]
        database = Database(
            "floats",
            [
                Table(
                    "facts",
                    [Column("category"), Column("amount", ColumnType.NUMERIC)],
                    list(zip("aaabbabaabbbabaa", amounts)),
                )
            ],
        )
        routes = [
            (ExecutionMode.NAIVE, "row"),
            (ExecutionMode.NAIVE, "columnar"),
            (ExecutionMode.MERGED_CACHED, "columnar"),
        ]
        for function in ("Sum", "Avg"):
            for where in ("", " WHERE category = 'a'"):
                query = parse_query(f"SELECT {function}(amount) FROM facts{where}", database)
                # One query per engine: a merged cube would read an unfiltered
                # query from its ALL cell, which adds per-group subtotals.
                values = [
                    QueryEngine(database, EngineConfig(mode=mode, backend=backend))
                    .evaluate([query])[query]
                    .hex()
                    for mode, backend in routes
                ]
                assert values == [values[0]] * len(routes), str(query)
