"""The columnar cold path's kernels against per-row references.

The encode pass does its Python work per distinct raw cell
(``repro.db.values.factorize``) and the cube kernels reduce (group, code)
histograms; every test here pins one of them to the loop it replaced.
"""

from __future__ import annotations

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
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
)
from repro.db.adapters import ColumnarAdapter
from repro.db.columnar import (
    ColumnarRelation,
    ColumnDictionary,
    EncodedTable,
    encode_column,
)
from repro.db.joins import JoinGraph
from repro.db.values import (
    DEFAULT_LITERAL,
    cell_key,
    factorize,
    is_missing,
    normalize_string,
)

from tests.db.oracle import assert_bit_equal, assert_cube_matches_oracle, run_cube
from tests.db.strategies import BEYOND_FLOAT, shadow_cells

#: ``shadow_cells`` plus the cells that are equal and yet not the same cell.
MIXED_CELLS = shadow_cells() | st.sampled_from(
    [1, 1.0, True, "1", " 1 ", 0, 0.0, -0.0, False, "$1,200", BEYOND_FLOAT]
)

#: Cells of a column the encoder builds in bulk: exact ``int``/``float``
#: (ints past 2**53 and 2**63, infinities, both zeros) and NULL.
NUMBER_CELLS = (
    st.none()
    | st.integers(min_value=-3, max_value=3)
    | st.integers(min_value=2**53 - 2, max_value=2**53 + 2)
    | st.sampled_from([2**63, -(2**64), 10**30, -(2**53) - 1])
    | st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, 1.0, float("inf"), -float("inf")])
)

#: Cells that send a number column back to ``intern``: NaN objects (a new
#: one per draw), ``bool``, ints beyond float range (one rounds to the
#: largest float), and ``1``/``1.0``/``"1"`` mixes.
FALLBACK_CELLS = (
    st.builds(float, st.just("nan"))
    | st.booleans()
    | st.sampled_from([BEYOND_FLOAT, int(sys.float_info.max) + 1, 1, 1.0, "1"])
)

#: A column drawn mostly from ``NUMBER_CELLS``, sometimes spoiled.
ENCODE_COLUMNS = st.lists(NUMBER_CELLS, max_size=16) | st.lists(
    NUMBER_CELLS | FALLBACK_CELLS | MIXED_CELLS, max_size=16
)


def builds_in_bulk(cells) -> bool:
    """The bulk rule: every non-NULL cell an exact ``int``/``float``, no
    NaN, and beside an ``int`` no finite number at or beyond the largest
    float (an int there may not coerce; a float there is told apart from
    it by a slower path)."""
    numbers = [cell for cell in cells if cell is not None]
    if any(type(cell) not in (int, float) or cell != cell for cell in numbers):
        return False
    if int not in map(type, numbers):
        return True
    return all(
        abs(cell) < sys.float_info.max or cell in (math.inf, -math.inf)
        for cell in numbers
    )


def assert_same_scalars(expected, actual, context=""):
    """Same class, same value, same zero sign; NaN equals NaN."""
    expected, actual = list(expected), list(actual)
    assert len(expected) == len(actual), context
    for position, (left, right) in enumerate(zip(expected, actual)):
        assert_bit_equal(left, right, f"{context}[{position}]")


def reference_encode(cells):
    """The per-cell loop ``encode_column`` replaced."""
    dictionary = ColumnDictionary()
    codes, none_mask = [], []
    for cell in cells:
        codes.append(dictionary.intern(cell))
        none_mask.append(cell is None)
    return dictionary, codes, none_mask


class TestFactorizedEncode:
    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(MIXED_CELLS, max_size=16))
    def test_encode_column_equals_per_cell_loop(self, cells):
        dictionary, codes, none_mask = reference_encode(cells)
        vector = encode_column(cells)
        assert list(vector.codes) == codes
        assert list(vector.none_mask) == none_mask
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

    def test_python_work_is_per_distinct_cell(self, monkeypatch):
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

    @settings(max_examples=300, deadline=None)
    @given(cells=ENCODE_COLUMNS)
    def test_bulk_dictionary_equals_interned_one(self, cells):
        """A column of exact numbers gets its dictionary in bulk, and it is
        the per-cell ``intern`` one field for field; any other column is
        interned."""
        dictionary, codes, none_mask = reference_encode(cells)
        vector = encode_column(cells)
        built = vector.dictionary
        # Untouched, a bulk dictionary has no strings yet.
        assert (built._values is None) == builds_in_bulk(cells)
        assert vector.codes.tolist() == codes
        assert vector.none_mask.tolist() == none_mask
        assert built.values == dictionary.values
        assert built.index == dictionary.index
        assert len(built) == len(dictionary)
        assert_same_scalars(dictionary.cells, built.cells, "cells")
        assert_same_scalars(dictionary.numbers, built.numbers, "numbers")
        assert built.numbers_arr.tobytes() == dictionary.numbers_arr.tobytes()
        assert built.numeric_arr.tolist() == dictionary.numeric_arr.tolist()

    def test_bulk_dictionary_builds_its_strings_on_first_use(self):
        vector = encode_column([3, None, 2.5, 3, -0.0, 2**60])
        dictionary = vector.dictionary
        assert dictionary._values is None and dictionary._index is None
        assert vector.codes.tolist() == [1, 0, 2, 1, 3, 4]
        assert dictionary.code_of("-0.0") == 3
        assert dictionary.values == ["", "3", "2.5", "-0.0", str(2**60)]

    def test_empty_table_encodes_every_column(self):
        table = Table("t", [Column("a"), Column("b")])
        encoded = EncodedTable(table)
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

    @settings(max_examples=150, deadline=None)
    @given(cells=st.lists(MIXED_CELLS | NUMBER_CELLS | FALLBACK_CELLS, max_size=20))
    def test_columnar_adapter_reads_them_off_the_dictionary(self, cells):
        """``dictionary.cells[1:limit + 1]`` is the scan, for every limit."""
        table = Table("t", [Column("pad"), Column("c")], [(0, cell) for cell in cells])
        adapter = ColumnarAdapter(Database("d", [table]))
        for limit in (None, *range(1, len(cells) + 2)):
            assert_same_scalars(
                table.distinct_values("c", limit),
                adapter.distinct_values("t", "c", limit),
                f"limit={limit}",
            )


class TestRelationBuild:
    def test_single_table_relation_is_the_encoded_table(self, nfl_db):
        graph = JoinGraph(nfl_db, backend=ExecutionBackend.COLUMNAR)
        relation = graph.relation({"nflsuspensions"})
        encoded = graph.encoded_table("nflsuspensions")
        assert len(relation) == len(nfl_db.table("nflsuspensions"))
        for vector, source in zip(relation.vectors, encoded.vectors):
            assert vector is source
            assert vector.codes is source.codes

    def test_joined_relation_still_gathers(self, star_db):
        graph = JoinGraph(star_db, backend=ExecutionBackend.COLUMNAR)
        relation = graph.relation({"players", "teams"})
        assert len(relation) == 6
        league = relation.vector(ColumnRef("teams", "league"))
        source = graph.encoded_table("teams").vectors[2]
        assert league.codes is not source.codes
        assert len(league.codes) == 6 and len(source.codes) == 3
        assert league.dictionary is source.dictionary


def reference_join(probe_cells, build_cells):
    """The bucket loop ``_join_numpy`` replaced: keys compare by normalized
    string, a NULL key matches nothing, and pairs come out probe-major with
    a key's build rows in their original order."""
    buckets = {}
    for row, cell in enumerate(build_cells):
        if cell is not None:
            buckets.setdefault(normalize_string(cell), []).append(row)
    return [
        (row, match)
        for row, cell in enumerate(probe_cells)
        if cell is not None
        for match in buckets.get(normalize_string(cell), ())
    ]


def join_pairs(probe, build):
    remap = columnar._code_remap(build.dictionary, probe.dictionary)
    probe_sel, build_sel = columnar._join_numpy(
        probe.codes, probe.none_mask, build.codes, build.none_mask, remap
    )
    return list(zip(probe_sel.tolist(), build_sel.tolist()))


class TestHashJoin:
    @settings(max_examples=150, deadline=None)
    @given(
        probe=st.lists(MIXED_CELLS, max_size=12),
        build=st.lists(MIXED_CELLS, max_size=12),
    )
    def test_equals_bucket_loop(self, probe, build):
        pairs = join_pairs(encode_column(probe), encode_column(build))
        assert pairs == reference_join(probe, build)

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(MIXED_CELLS, max_size=12))
    def test_one_dictionary_joins_codes_without_remap(self, cells):
        vector = encode_column(cells)
        assert columnar._code_remap(vector.dictionary, vector.dictionary) is None
        assert join_pairs(vector, vector) == reference_join(cells, cells)


PRED_A = ColumnRef("t", "a")
PRED_B = ColumnRef("t", "b")


def two_column_relation(rows) -> ColumnarRelation:
    columns = list(zip(*rows)) or [(), ()]
    return ColumnarRelation(
        [PRED_A, PRED_B], [encode_column(cells) for cells in columns], len(rows)
    )


class TestHistogram:
    @settings(max_examples=150, deadline=None)
    @given(
        ids=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
        spare=st.integers(min_value=0, max_value=200),
    )
    def test_dense_and_sorted_routes_equal_a_counter(self, ids, spare):
        """``spare`` widens the id space past four slots per id, where the
        histogram sorts instead of counting densely."""
        bound = max(ids, default=0) + 1 + spare
        values, counts = columnar._histogram(np.array(ids, dtype=np.int64), bound)
        assert list(zip(values.tolist(), counts.tolist())) == sorted(Counter(ids).items())


@st.composite
def grouped_cells(draw):
    """At least one cell (an empty relation has no groups at all), each
    with a group id; some groups may be empty."""
    n_groups = draw(st.integers(min_value=1, max_value=6))
    cells = draw(st.lists(MIXED_CELLS, min_size=1, max_size=20))
    groups = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_groups - 1),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    return n_groups, cells, groups


def column_stats(n_groups, cells, groups):
    relation = two_column_relation([(cell, None) for cell in cells])
    inverse = np.array(groups, dtype=np.int64)
    rows = np.bincount(inverse, minlength=n_groups).tolist()
    return columnar._column_stats_numpy(relation, inverse, rows, PRED_A, True)


class TestColumnStats:
    @settings(max_examples=150, deadline=None)
    @given(grouped=grouped_cells())
    def test_equals_per_row_loop(self, grouped):
        """The loop the (group, code) histogram replaced, over the
        dictionary's numbers; SUM adds in row order, so to the last bit."""
        n_groups, cells, groups = grouped
        stats = column_stats(n_groups, cells, groups)
        vector = encode_column(cells)
        numbers = vector.dictionary.numbers
        count, ncount = [0] * n_groups, [0] * n_groups
        total = [0.0] * n_groups
        extremes = [[] for _ in range(n_groups)]
        for group, code in zip(groups, vector.codes.tolist()):
            if code == 0:
                continue
            count[group] += 1
            if numbers[code] is not None:
                ncount[group] += 1
                total[group] += float(numbers[code])
                extremes[group].append(float(numbers[code]))
        assert stats.rows == [groups.count(group) for group in range(n_groups)]
        assert stats.count == count
        assert stats.ncount == ncount
        # With no numeric row at all ``bincount`` hands back integer zeros,
        # which no cell reads (``ncount`` is 0).
        assert [float(value).hex() for value in stats.total] == [
            value.hex() for value in total
        ]
        for group, seen in enumerate(extremes):
            if seen:  # equal, not bit-equal: which zero wins is not pinned
                assert stats.minimum[group] == min(seen)
                assert stats.maximum[group] == max(seen)

    @settings(max_examples=150, deadline=None)
    @given(grouped=grouped_cells(), data=st.data())
    def test_distinct_counts_equal_set_unions(self, grouped, data):
        """Every group rolls up into one cell of each dimension subset (cell
        ``j * width + k`` is the ``k``-th of subset ``j``); a cell's count is
        the size of the union of its groups' non-missing codes."""
        n_groups, cells, groups = grouped
        subsets = data.draw(st.integers(min_value=1, max_value=3), label="subsets")
        width = data.draw(st.integers(min_value=1, max_value=3), label="width")
        n_cells = subsets * width
        cell_of = [
            [
                subset * width
                + data.draw(st.integers(min_value=0, max_value=width - 1))
                for subset in range(subsets)
            ]
            for _ in range(n_groups)
        ]
        codes = encode_column(cells).codes.tolist()
        unions = [set() for _ in range(n_cells)]
        for group, code in zip(groups, codes):
            if code != 0:
                for cell in cell_of[group]:
                    unions[cell].add(code)
        counts = column_stats(n_groups, cells, groups).distinct_counts(cell_of, n_cells)
        assert counts == [len(union) for union in unions]


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


class TestHistogramCube:
    """Dense (``bincount``) and sparse (sorted) histograms give the
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
        result = run_cube(database, cube)
        assert_cube_matches_oracle(database, cube, result, "columnar", sample=100)
        for spec in cube.aggregates:
            for value in result.cells_for(spec).values():
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
        for spec in result.query.aggregates:
            assert len(result.cells_for(spec)) == 4  # ALL, alpha, beta, default

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

    def test_empty_relation(self):
        database = histogram_database(0, n_amounts=1)
        result = self.check(database, histogram_cube({KIND: {"alpha"}}))
        for spec in result.query.aggregates:
            assert result.cells_for(spec) == {}


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
    def test_equals_sorted_unique_compaction(self, dimensions):
        database = histogram_database(150, n_amounts=5)
        cube = histogram_cube(dimensions)
        relation = JoinGraph(database, backend=ExecutionBackend.COLUMNAR).relation({"facts"})
        inverse, group_keys = columnar._group_rows(relation, cube)
        expected_inverse, expected_keys = reference_group_rows(relation, cube)
        assert list(inverse) == expected_inverse
        assert group_keys == expected_keys
