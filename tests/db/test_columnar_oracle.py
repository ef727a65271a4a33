"""Randomized cross-checks of the columnar cube against the row-wise oracle.

NAIVE × row (the row-wise executor and join) is the reference semantics;
every test here asserts that the dictionary-encoded columnar backend
produces the oracle's results — cell-for-cell for cubes, value-for-value
for SimpleAggregateQueries — on randomized databases including NULL-heavy
columns, messy numeric strings, dangling join keys, and empty groups.
Values compare through ``tests/db/oracle.py``: exact and type-strict but
for its named clauses. A cube cell read from one group adds in row order,
so the float bit-identity tests evaluate one query per engine.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    AggregateFunction,
    AggregateSpec,
    ColumnRef,
    CubeQuery,
    ExecutionBackend,
    QueryEngine,
    STAR,
    parse_query,
)
from repro.db.columnar import ColumnarRelation
from repro.db.joins import JoinGraph

from tests.db.oracle import (
    ORACLE,
    assert_cube_matches_oracle,
    assert_engine_matches_oracle,
    run_cube,
)
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
    """Property: every columnar cube cell a query can name holds that
    query's oracle value."""
    assert_cube_matches_oracle(database, cube, run_cube(database, cube), "columnar")


@settings(max_examples=60, deadline=None)
@given(
    database=small_databases() | nullheavy_databases(),
    query=claim_queries() | conditional_queries(),
)
def test_simple_queries_match_rowwise_oracle(database, query):
    """Property: one query on its own columnar engine (a cube over its own
    predicate columns) agrees with the oracle."""
    assert_engine_matches_oracle(database, [query], "columnar")


@settings(max_examples=40, deadline=None)
@given(database=joined_databases(), queries=st.lists(joined_queries(), min_size=1, max_size=8))
def test_joined_queries_match_rowwise_oracle(database, queries):
    """Property: hash join on key codes reproduces the row-wise equi-join
    (NULL keys and dangling foreign keys drop identically)."""
    assert_engine_matches_oracle(database, queries, "columnar")


@settings(max_examples=40, deadline=None)
@given(
    database=small_databases() | nullheavy_databases(),
    queries=st.lists(
        claim_queries() | conditional_queries(), min_size=1, max_size=10
    ),
)
def test_engine_modes_match_across_backends(database, queries):
    """Property: the default engine agrees with the oracle, including
    repeat evaluation through the result cache."""
    assert_engine_matches_oracle(database, queries, "columnar", repeat=2)


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
    row oracle and the merged columnar cube."""
    from repro.db import Column, ColumnType, Database, Table

    database = Database(
        "floats",
        [Table("facts", [Column("category"), Column("amount", ColumnType.NUMERIC)], rows)],
    )
    query = parse_query(f"SELECT {function}(amount) FROM facts{where}", database)
    values = [
        QueryEngine(database, config).evaluate([query])[query]
        for config in (ORACLE, None)
    ]
    if values[0] is None:  # no 'a' row
        assert values == [None, None]
    else:
        assert values[1].hex() == values[0].hex(), str(query)


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
        result = run_cube(database, cube)
        assert result.cells_for(cube.aggregates[0]) == {}
        assert_cube_matches_oracle(database, cube, result, "columnar")


class TestFixedInputs:
    """Hand-picked inputs the columnar route must agree with the oracle on."""

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
        assert_engine_matches_oracle(nfl_db, queries, "columnar", repeat=2)

    def test_join_matches_rowwise(self, star_db):
        sqls = [
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
            "SELECT Count(*) FROM players JOIN teams WHERE city = 'dallas'",
            "SELECT Avg(goals) FROM players",
        ]
        queries = [parse_query(sql, star_db) for sql in sqls]
        assert_engine_matches_oracle(star_db, queries, "columnar")

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
        assert_cube_matches_oracle(database, cube, run_cube(database, cube), "columnar")

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
        for function in ("Sum", "Avg"):
            for where in ("", " WHERE category = 'a'"):
                query = parse_query(f"SELECT {function}(amount) FROM facts{where}", database)
                # One query per engine: a merged cube would read an unfiltered
                # query from its ALL cell, which adds per-group subtotals.
                values = [
                    QueryEngine(database, config).evaluate([query])[query].hex()
                    for config in (ORACLE, None)
                ]
                assert values[1] == values[0], str(query)
