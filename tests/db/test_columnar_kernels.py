"""The columnar cold path's kernels against per-row references.

The encode pass does its Python work per distinct raw cell
(``repro.db.values.factorize``) and the cube kernels reduce (group, code)
histograms; every test here pins one of them to the loop it replaced,
with NumPy and on the pure-Python kernels.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.db.columnar as columnar
import repro.db.schema as schema
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
from repro.db.columnar import ColumnDictionary, encode_column, encode_table
from repro.db.joins import JoinGraph
from repro._compat import np
from repro.db.values import (
    DEFAULT_LITERAL,
    cell_key,
    factorize,
    is_missing,
    is_numeric,
)

from tests.db.strategies import BEYOND_FLOAT, shadow_cells
from tests.db.test_columnar_oracle import assert_cube_results_equal, both_graphs
from tests.db.test_sqlite_oracle import assert_bit_equal

#: ``shadow_cells`` plus the cells that are equal and yet not the same cell.
MIXED_CELLS = shadow_cells() | st.sampled_from(
    [1, 1.0, True, "1", " 1 ", 0, 0.0, -0.0, False, "$1,200", BEYOND_FLOAT]
)


@pytest.fixture(params=["numpy", "python"])
def kernels(request, monkeypatch):
    """Run a test on the NumPy kernels and on the pure-Python ones."""
    if request.param == "python":
        monkeypatch.setattr(columnar, "_np", None)
    elif np is None:
        pytest.skip("NumPy is not installed")
    return request.param


needs_numpy_kernels = pytest.mark.skipif(np is None, reason="NumPy is not installed")


def assert_same_scalars(expected, actual, context=""):
    """Same class, same value, same zero sign; NaN equals NaN."""
    expected, actual = list(expected), list(actual)
    assert len(expected) == len(actual), context
    for position, (left, right) in enumerate(zip(expected, actual)):
        assert_bit_equal(left, right, f"{context}[{position}]")


def reference_encode(cells):
    """The per-cell loop ``encode_column`` replaced."""
    dictionary = ColumnDictionary()
    codes, none_mask, raw_numbers = [], [], []
    for cell in cells:
        codes.append(dictionary.intern(cell))
        none_mask.append(cell is None)
        try:
            raw_numbers.append(
                float(cell)
                if not isinstance(cell, str) and is_numeric(cell)
                else float("nan")
            )
        except OverflowError:
            raw_numbers.append(float("nan"))
    return dictionary, codes, none_mask, raw_numbers


class TestFactorizedEncode:
    # ``kernels`` only picks the module's NumPy binding: nothing to reset.
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cells=st.lists(MIXED_CELLS, max_size=16))
    def test_encode_column_equals_per_cell_loop(self, kernels, cells):
        dictionary, codes, none_mask, raw_numbers = reference_encode(cells)
        vector = encode_column(cells)
        assert vector.vectorized == (kernels == "numpy")
        assert list(vector.codes) == codes
        assert list(vector.none_mask) == none_mask
        assert_same_scalars(
            raw_numbers, map(float, vector.raw_numbers), "raw_numbers"
        )
        assert vector.dictionary.values == dictionary.values
        assert vector.dictionary.index == dictionary.index
        assert_same_scalars(dictionary.numbers, vector.dictionary.numbers, "numbers")

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(MIXED_CELLS, max_size=16))
    def test_factorize_separates_exactly_what_the_cell_key_separates(self, cells):
        distinct, index = factorize(cells)
        keys = list(map(cell_key, cells))
        assert list(map(cell_key, distinct)) == list(dict.fromkeys(keys))
        assert [cell_key(distinct[position]) for position in index] == keys

    def test_cell_key_keeps_equal_cells_apart(self):
        cells = [1, 1.0, True, "1", 0, 0.0, -0.0, False, None, ""]
        assert len(set(map(cell_key, cells))) == len(cells)
        nan = float("nan")
        assert cell_key(nan) == cell_key(nan)  # one object, one key

    def test_python_work_is_per_distinct_cell(self, kernels, monkeypatch):
        """Cost guard: 10 000 rows over 7 distinct cells normalize 7 times
        (the per-cell loop normalized every row)."""
        calls = []
        normalize = columnar.normalize_string

        def counting(cell):
            calls.append(cell)
            return normalize(cell)

        monkeypatch.setattr(columnar, "normalize_string", counting)
        distinct = ["Alpha", "beta", None, 3, 3.5, "$1,200", ""]
        cells = [distinct[i % 7] for i in range(10_000)]
        vector = encode_column(cells)
        assert len(vector.codes) == 10_000
        assert len(calls) <= 7 + 1

    def test_empty_table_encodes_every_column(self, kernels):
        table = Table("t", [Column("a"), Column("b")])
        encoded = encode_table(table)
        assert [len(vector.codes) for vector in encoded.vectors] == [0, 0]


def reference_distinct_values(cells, limit):
    """The row loop ``Table.distinct_values`` replaced."""
    seen = {}
    for cell in cells:
        if is_missing(cell):
            continue
        key = str(cell).strip().lower()
        if key not in seen:
            seen[key] = cell
            if limit is not None and len(seen) >= limit:
                break
    return list(seen.values())


class TestDistinctValues:
    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(MIXED_CELLS, max_size=20), chunk=st.sampled_from([3, 65_536]))
    def test_equals_row_loop_for_every_limit(self, cells, chunk):
        table = Table("t", [Column("pad"), Column("c")], [(0, cell) for cell in cells])
        original = schema._DISTINCT_CHUNK
        schema._DISTINCT_CHUNK = chunk  # 3: the limit is reached chunks in
        try:
            for limit in (None, *range(1, len(cells) + 2)):
                assert_same_scalars(
                    reference_distinct_values(cells, limit),
                    table.distinct_values("c", limit),
                    f"limit={limit}",
                )
        finally:
            schema._DISTINCT_CHUNK = original


class TestRelationBuild:
    def test_single_table_relation_is_the_encoded_table(self, kernels, nfl_db):
        graph = JoinGraph(nfl_db, backend=ExecutionBackend.COLUMNAR)
        relation = graph.relation({"nflsuspensions"})
        encoded = graph.encoded_table("nflsuspensions")
        assert len(relation) == len(nfl_db.table("nflsuspensions"))
        for vector, source in zip(relation.vectors, encoded.vectors):
            assert vector is source
            assert vector.codes is source.codes

    def test_joined_relation_still_gathers(self, kernels, star_db):
        graph = JoinGraph(star_db, backend=ExecutionBackend.COLUMNAR)
        relation = graph.relation({"players", "teams"})
        assert len(relation) == 6
        league = relation.vector(ColumnRef("teams", "league"))
        source = graph.encoded_table("teams").vectors[2]
        assert league.codes is not source.codes
        assert len(league.codes) == 6 and len(source.codes) == 3
        assert league.dictionary is source.dictionary


NAME = ColumnRef("facts", "name")
KIND = ColumnRef("facts", "kind")
AMOUNT = ColumnRef("facts", "amount")
NOTE = ColumnRef("facts", "note")
BLANK = ColumnRef("facts", "blank")
KINDS = ["alpha", "beta", "gamma", "delta"]


def histogram_database(n_rows: int, n_amounts: int) -> Database:
    """``n_rows`` rows: 97 names x 4 kinds, ``n_amounts`` distinct amounts
    (every seventh a messy string, some cells missing), an all-text and
    an all-missing column."""
    rows = [
        (
            f"name{i % 97}",
            KINDS[(i * 7) % 4] if i % 11 else None,
            None if i % 13 == 0 else f"${i % n_amounts},000" if i % 7 == 0 else (i % n_amounts) * 0.5,
            f"note {i % 5}",
            None if i % 2 else "  ",
        )
        for i in range(n_rows)
    ]
    columns = [
        Column("name"),
        Column("kind"),
        Column("amount", ColumnType.NUMERIC),
        Column("note"),
        Column("blank", ColumnType.NUMERIC),
    ]
    return Database("hist", [Table("facts", columns, rows)])


def histogram_cube(dimensions: dict) -> CubeQuery:
    ordered = tuple(sorted(dimensions))
    specs = [AggregateSpec(AggregateFunction.COUNT, STAR)]
    for column in (AMOUNT, NOTE, BLANK):
        specs += [
            AggregateSpec(function, column)
            for function in AggregateFunction
            if not function.is_ratio
        ]
    return CubeQuery(
        tables=frozenset({"facts"}),
        dimensions=ordered,
        literals=tuple((dim, frozenset(dimensions[dim])) for dim in ordered),
        aggregates=tuple(specs),
    )


@needs_numpy_kernels
class TestHistogramCube:
    """Dense (``bincount``) and sparse (sorted) histograms give the row
    oracle's cells; which route ran is read off the NumPy calls."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Lengths of the arrays ``np.unique`` / ``np.searchsorted`` saw."""
        seen = {"unique": [], "searchsorted": []}
        for name, position in (("unique", 0), ("searchsorted", 1)):
            def spy(*args, _real=getattr(np, name), _seen=seen[name], _at=position, **kwargs):
                _seen.append(len(args[_at]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        return seen

    def check(self, database, cube):
        row_graph, col_graph = both_graphs(database)
        result = execute_cube(database, cube, col_graph)
        assert_cube_results_equal(execute_cube(database, cube, row_graph), result)
        for cell in result.cells.values():
            for value in cell.values():
                assert type(value) in (int, float, type(None))
        assert result.rows_scanned == len(database.table("facts"))
        return result

    def test_dense_route(self, calls):
        database = histogram_database(600, n_amounts=9)
        result = self.check(
            database, histogram_cube({KIND: {"alpha", "beta", "absent"}})
        )
        # (The all-missing column has no pairs; an empty array may be "sorted".)
        assert not any(calls["unique"]) and not calls["searchsorted"]
        assert len(result.cells) == 4  # ALL, alpha, beta, default

    def test_sparse_histogram(self, calls):
        """Hundreds of groups x hundreds of amount codes is far beyond four
        slots per row: the pair histogram sorts, the grouping does not."""
        database = histogram_database(600, n_amounts=300)
        names = {f"name{i}" for i in range(97)}
        self.check(database, histogram_cube({NAME: names, KIND: set(KINDS)}))
        assert 600 in calls["unique"]
        assert calls["searchsorted"] == []

    def test_sparse_grouping(self, calls):
        """5 groups x 61 buckets on 60 rows: the group ids are sorted too."""
        database = histogram_database(60, n_amounts=5)
        names = {f"name{i}" for i in range(60)}
        self.check(database, histogram_cube({NAME: names, KIND: set(KINDS)}))
        assert calls["searchsorted"] == [60]

    def test_python_kernels(self, monkeypatch):
        monkeypatch.setattr(columnar, "_np", None)
        database = histogram_database(200, n_amounts=50)
        self.check(database, histogram_cube({KIND: {"alpha", "gamma"}, NAME: {"name3"}}))

    def test_empty_relation(self, kernels):
        database = histogram_database(0, n_amounts=1)
        result = self.check(database, histogram_cube({KIND: {"alpha"}}))
        assert result.cells == {}


def reference_group_rows(relation, cube):
    """Sorted-unique compaction after every dimension, row by row."""
    inverse = [0] * len(relation)
    group_keys = [()]
    for dim, literals in cube.literals:
        vector = relation.vector(dim)
        labels = [DEFAULT_LITERAL] + sorted(
            literal
            for literal in literals
            if vector.dictionary.code_of(literal) is not None
        )
        combined = [
            group * len(labels)
            + (labels.index(value) if value in labels else 0)
            for group, value in zip(
                inverse, (vector.dictionary.values[code] for code in vector.codes)
            )
        ]
        uniq = sorted(set(combined))
        inverse = [uniq.index(value) for value in combined]
        group_keys = [
            group_keys[value // len(labels)] + (labels[value % len(labels)],)
            for value in uniq
        ]
    return inverse, group_keys


class TestGroupRows:
    @pytest.mark.parametrize(
        "dimensions",
        [
            {},
            {KIND: {"alpha", "absent"}},
            {KIND: set(KINDS), NAME: {"name1", "name2", "nobody"}},
            {KIND: {"beta"}, NAME: {f"name{i}" for i in range(97)}, NOTE: {"note 1", "note 9"}},
            {NAME: {"nobody"}},
        ],
    )
    def test_equals_sorted_unique_compaction(self, kernels, dimensions):
        database = histogram_database(150, n_amounts=5)
        cube = histogram_cube(dimensions)
        relation = JoinGraph(database, backend=ExecutionBackend.COLUMNAR).relation({"facts"})
        inverse, group_keys = columnar._group_rows(relation, cube)
        expected_inverse, expected_keys = reference_group_rows(relation, cube)
        assert list(inverse) == expected_inverse
        assert group_keys == expected_keys
