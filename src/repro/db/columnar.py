"""Columnar execution backend: dictionary-encoded relations.

Every scalar the engine needs from a cell -- its normalized string, its
numeric coercion, ``is None`` -- is a pure function of the raw cell, and
every cube reduction except SUM is a pure function of the per-group multiset
of dictionary codes. So Python runs once per *distinct raw cell*, array
kernels run over *(group, code) histograms*, and only SUM reads the rows.

- **Encode** (:class:`EncodedTable`), per column and on first use, in two
  stages that its owner (the engine's join graph: one per checker, never
  the ``Table``) memoises. *Dictionary*: one
  :func:`~repro.db.values.factorize` pass over the column
  (``map(itemgetter(j), rows)``; a streamed table's rows are read once
  per table) finds the distinct raw cells in first-seen order in C (two
  raw cells are the same cell by :func:`~repro.db.values.cell_key`:
  class- and zero-sign-aware, so ``1``, ``1.0``, ``True``, ``"1"`` and
  ``0.0``, ``-0.0`` stay apart) and gives each its code. Code 0 is the
  missing bucket (NULL and blank strings normalize to ``""``); the
  dictionary carries per code the normalized string, the number and the
  first raw cell seen, so ``cells[1:]`` is ``Table.distinct_values``,
  which fragment extraction reads through
  :meth:`~repro.db.adapters.memory.ColumnarAdapter.distinct_values`. A
  column whose non-NULL cells are all exact ``int``/``float`` (no NaN, no
  ``int`` beyond float range) is built in bulk: each cell coerces to
  itself and ``str`` is injective on them, so codes are ranks, the
  numbers one ``np.array``, and the strings wait for their first use;
  any other column interns each distinct cell. *Codes*: the per-row
  ``codes``/``none_mask`` gather by raw id, which only
  :func:`build_columnar_relation` reads.
- **Join** (:func:`build_columnar_relation`): hash joins on key codes; a
  one-table path hands the encoded vectors through untouched.
- **Cube** (:func:`execute_cube_columnar`), three phases. *Group*: per
  dimension a bucket LUT over codes, combined into one group id per row and
  compacted by ``bincount`` + remap LUT, no sort. *Reduce*: per aggregate
  column the (group, code) histogram gives COUNT, the numeric count, MIN, MAX
  and the distinct code sets from a few entries per group; SUM alone stays a
  row-order ``bincount(weights=...)``, because float addition is not
  associative and regrouping by code would move the last bits of every SUM
  and AVG. *Roll up and finalize*, one aggregate at a time: each partial
  the aggregates read is folded from the (few) groups into every dimension
  subset in Python, distinct counts from the pair arrays, and each
  aggregate is finalized over all cells at once
  (:func:`~repro.db.cube.finalize_cells`). A histogram is
  counted densely while its id space is within ``_DENSE_SLOTS_PER_ID`` times
  the ids counted (scratch bounded by the input's own size, computed, not
  configured) and by one sort beyond that; both routes yield the same arrays.

A cube cell read from one group (or from a cube without dimensions) adds
its numbers in row order, like the row-wise executor, so the two agree to
the last bit; a rolled-up ALL or subset cell adds per-group subtotals
instead, and can differ from ``NAIVE`` in the last bits of a float SUM or
AVG. Every kernel is a NumPy kernel. The row-wise executor
(:mod:`repro.db.executor`, ``NAIVE`` × ``row``) is the reference oracle;
``tests/db/test_columnar_oracle.py`` holds the cube to it on randomized
databases, under the named differences of ``tests/db/oracle.py``.

Known deviation from the row-wise oracle: a code's number is that of the first
raw cell seen for it, so a float ``inf`` cell after a string ``"inf"`` (which
does not coerce) is non-numeric here, while the executor adds it. No realistic
CSV input produces float infinities. Not a deviation: an integer cell beyond
float range (``10**400``) is present but non-numeric in every tier
(:func:`~repro.db.values.coerce_number` refuses it), so it reaches no float64
array here and no SQL REAL.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from itertools import combinations
from operator import add, itemgetter

import numpy as _np

from repro.db.aggregates import AggregateFunction
from repro.db.cube import ALL, CubeResult, _check_rollup_budget, finalize_cells
from repro.db.refs import ColumnRef
from repro.db.schema import Database, Table
from repro.db.values import (
    DEFAULT_LITERAL,
    Value,
    coerce_number,
    factorize,
    normalize_string,
)
from repro.errors import JoinPathError


class ExecutionBackend(enum.Enum):
    """Physical representation the engine evaluates queries against.

    ``ROW`` is the original tuple-at-a-time implementation (the reference
    oracle); ``COLUMNAR`` is the dictionary-encoded, NumPy-vectorized
    backend of this module.
    """

    ROW = "row"
    COLUMNAR = "columnar"


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


class ColumnDictionary:
    """Per-column dictionary of normalized cell strings.

    Code 0 is reserved for the missing bucket: NULLs and blank strings both
    normalize to ``""``, and nothing else does, so ``code == 0`` is exactly
    :func:`~repro.db.values.is_missing`. ``cells[code]`` is the first raw
    cell seen for the code (``cells[0]`` is a ``None`` placeholder), so
    ``cells[1:]`` are the column's distinct non-missing values in
    first-seen order. ``numbers[code]`` caches the numeric coercion of that
    cell (cells sharing a normalized string coerce identically, modulo the
    ``inf`` caveat above).
    """

    __slots__ = ("cells", "numbers", "_values", "_index", "_numbers_arr", "_numeric_arr")

    def __init__(self) -> None:
        self.cells: list[Value] = [None]
        self.numbers: list[float | int | None] = [None]
        self._values: list[str] | None = [""]
        self._index: dict[str, int] | None = {"": 0}
        self._numbers_arr = None
        self._numeric_arr = None

    @classmethod
    def of_numbers(cls, numbers: list, numbers_arr) -> "ColumnDictionary":
        """The dictionary of distinct exact ``int``/``float`` cells, each
        its own code in the given order, with ``numbers_arr`` their float64
        images. The normalized strings are built on first use: ``str`` is
        injective on such cells and is their normalized form."""
        dictionary = cls()
        dictionary.cells = [None, *numbers]
        dictionary.numbers = dictionary.cells.copy()
        dictionary._values = dictionary._index = None
        dictionary._numbers_arr = _np.concatenate(([_np.nan], numbers_arr))
        dictionary._numeric_arr = _np.arange(len(dictionary.cells)) > 0
        return dictionary

    def __len__(self) -> int:
        return len(self.numbers)

    @property
    def values(self) -> list[str]:
        """Normalized string per code."""
        if self._values is None:
            values = list(map(str, self.cells))
            values[0] = ""
            self._values = values
        return self._values

    @property
    def index(self) -> dict[str, int]:
        """Code per normalized string."""
        if self._index is None:
            self._index = dict(zip(self.values, range(len(self.values))))
        return self._index

    def intern(self, cell: Value) -> int:
        key = normalize_string(cell)
        index = self.index
        code = index.get(key)
        if code is None:
            code = len(self.numbers)
            self.values.append(key)
            index[key] = code
            self.cells.append(cell)
            self.numbers.append(coerce_number(cell))
            self._numbers_arr = None
            self._numeric_arr = None
        return code

    def code_of(self, normalized: str) -> int | None:
        """Code of a normalized string, or None if absent from the data."""
        return self.index.get(normalized)

    @property
    def numbers_arr(self):
        """float64 per code (NaN where the code is not numeric)."""
        if self._numbers_arr is None:
            self._numbers_arr = _np.array(
                [float("nan") if n is None else float(n) for n in self.numbers],
                dtype=_np.float64,
            )
        return self._numbers_arr

    @property
    def numeric_arr(self):
        """bool per code: does the code coerce to a usable number?"""
        if self._numeric_arr is None:
            self._numeric_arr = _np.array(
                [n is not None for n in self.numbers], dtype=bool
            )
        return self._numeric_arr


class ColumnVector:
    """One encoded column: code per cell plus the ``is None`` mask that
    feeds join NULL-skipping (a NULL and a blank share code 0)."""

    __slots__ = ("dictionary", "codes", "none_mask")

    def __init__(self, dictionary, codes, none_mask):
        self.dictionary = dictionary
        self.codes = codes
        self.none_mask = none_mask

    def take(self, indices) -> "ColumnVector":
        """Gather rows (the output of a join step)."""
        return ColumnVector(
            self.dictionary,
            self.codes[indices],
            self.none_mask[indices],
        )


#: The cell classes a dictionary is built for in bulk (``bool`` is not one:
#: its cells normalize to ``"true"``/``"false"`` and do not coerce).
_BULK_CLASSES = frozenset({int, float, type(None)})

_LARGEST_FLOAT = _np.finfo(_np.float64).max


class _DictionaryStage:
    """One column's factorization: its dictionary, the code of each
    distinct raw cell, the raw id of ``None`` (None is its own raw cell,
    so there is at most one), and the (lazy, single-use) raw id of every
    row, which only :meth:`vector` reads."""

    __slots__ = ("dictionary", "raw_codes", "none_id", "raw_ids", "n_rows")

    def __init__(self, cells: Sequence[Value]) -> None:
        distinct, self.raw_ids = factorize(cells)
        self.n_rows = len(cells)
        kinds = set(map(type, distinct))
        if not (kinds <= _BULK_CLASSES and self._bulk(distinct, kinds)):
            self.none_id = (
                distinct.index(None) if type(None) in kinds else None
            )
            self.dictionary = ColumnDictionary()
            self.raw_codes = _np.array(
                list(map(self.dictionary.intern, distinct)), dtype=_np.int64
            )

    def _bulk(self, distinct: list, kinds: set) -> bool:
        """Build the dictionary of exact ``int``/``float`` cells in bulk,
        or return False when ``intern`` must: for a NaN cell, or an
        ``int`` beyond float range. Every other such cell coerces to
        itself, and no two of them share a normalized string (``str``),
        so each non-NULL raw cell is its own code, in first-seen order."""
        try:
            images = _np.array(distinct, dtype=_np.float64)  # None -> NaN
        except OverflowError:  # an int beyond every float
            return False
        none_ids = _np.flatnonzero(_np.isnan(images))
        if len(none_ids) > (type(None) in kinds):
            return False  # a NaN cell
        # An int just beyond float range still rounds to the largest float
        # (and does not coerce); a float equal to it falls back too, which
        # is merely slower.
        if int in kinds and (_np.abs(images) == _LARGEST_FLOAT).any():
            return False
        self.raw_codes = _np.arange(1, len(distinct) + 1, dtype=_np.int64)
        numbers = distinct
        if len(none_ids):
            self.none_id = none_id = int(none_ids[0])
            self.raw_codes[none_id:] -= 1
            self.raw_codes[none_id] = 0
            numbers = distinct[:none_id] + distinct[none_id + 1 :]
            images = _np.delete(images, none_id)
        else:
            self.none_id = None
        self.dictionary = ColumnDictionary.of_numbers(numbers, images)
        return True

    def vector(self) -> ColumnVector:
        """The code stage: gather code and ``is None`` to the rows."""
        raw_ids = _np.fromiter(self.raw_ids, dtype=_np.intp, count=self.n_rows)
        self.raw_ids = None
        if self.none_id is None:
            none_mask = _np.zeros(self.n_rows, dtype=bool)
        else:
            none_mask = raw_ids == self.none_id
        return ColumnVector(self.dictionary, self.raw_codes[raw_ids], none_mask)


def encode_column(cells: Sequence[Value]) -> ColumnVector:
    """Dictionary-encode one column of raw cells.

    Code and ``is None`` are functions of the raw cell, so they are
    computed once per distinct raw cell (:func:`~repro.db.values.factorize`)
    and gathered to the rows by index. Codes come out in first-seen order,
    exactly as if every cell had been interned in turn.
    """
    return _DictionaryStage(cells).vector()


class EncodedTable:
    """The columns of one base table, each encoded on first use in two
    memoised stages: :meth:`dictionary` (one factorization of the column)
    and :meth:`vector` (the per-row code gather, which only the relation
    build reads). The owner -- one :class:`~repro.db.joins.JoinGraph`, so
    one per checker -- memoises the table; nothing is kept on the
    :class:`~repro.db.schema.Table`, so a new checker encodes cold."""

    __slots__ = ("_table", "_rows", "_stages", "_vectors")

    def __init__(self, table: Table) -> None:
        self._table = table
        self._rows: list | None = None
        self._stages: list[_DictionaryStage | None] = [None] * len(table.columns)
        self._vectors: list[ColumnVector | None] = [None] * len(table.columns)

    def _stage(self, column: int) -> _DictionaryStage:
        stage = self._stages[column]
        if stage is None:
            if self._rows is None:
                # A streamed (file-backed) table is read once, not per column.
                rows = self._table.rows
                self._rows = rows if isinstance(rows, list) else list(rows)
            cells = list(map(itemgetter(column), self._rows))
            stage = self._stages[column] = _DictionaryStage(cells)
            if all(self._stages):
                self._rows = None
        return stage

    def dictionary(self, column: int) -> ColumnDictionary:
        """The dictionary of the table's ``column``-th column."""
        return self._stage(column).dictionary

    def vector(self, column: int) -> ColumnVector:
        """The encoded ``column``-th column."""
        vector = self._vectors[column]
        if vector is None:
            vector = self._vectors[column] = self._stage(column).vector()
        return vector

    @property
    def vectors(self) -> list[ColumnVector]:
        return [self.vector(column) for column in range(len(self._vectors))]


class ColumnarRelation:
    """A (possibly joined) row set stored as dictionary-encoded columns.

    Mirrors the :class:`~repro.db.joins.Relation` lookup interface so the
    engine's bookkeeping (``len``, column resolution) is representation
    agnostic; the cube and executor dispatch on the concrete type.
    """

    def __init__(
        self, columns: Sequence[ColumnRef], vectors: Sequence[ColumnVector], n_rows: int
    ) -> None:
        self.columns: tuple[ColumnRef, ...] = tuple(columns)
        self._index = {column: i for i, column in enumerate(self.columns)}
        self.vectors: tuple[ColumnVector, ...] = tuple(vectors)
        self._n_rows = n_rows

    def __len__(self) -> int:
        return self._n_rows

    def column_index(self, column: ColumnRef) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise JoinPathError(f"column {column} not in relation") from None

    def has_column(self, column: ColumnRef) -> bool:
        return column in self._index

    def vector(self, column: ColumnRef) -> ColumnVector:
        return self.vectors[self.column_index(column)]


# ----------------------------------------------------------------------
# Hash join on key codes
# ----------------------------------------------------------------------


def _code_remap(build_dict: ColumnDictionary, probe_dict: ColumnDictionary):
    """Map build-side codes into the probe dictionary's code space (-1: absent)."""
    if build_dict is probe_dict:
        return None
    remap = [probe_dict.index.get(v, -1) for v in build_dict.values]
    return _np.array(remap, dtype=_np.int64)


def _join_numpy(probe_codes, probe_none, build_codes, build_none, remap):
    """Match rows on equal key codes; returns (probe row ids, build row ids).

    Output order matches the row-wise nested-loop join: probe-major, build
    rows in original order within each key group (stable sort).
    """
    build_keys = build_codes if remap is None else remap[build_codes]
    build_valid = ~build_none & (build_keys >= 0)
    build_rows = _np.flatnonzero(build_valid)
    keys_build = build_keys[build_rows]
    order = _np.argsort(keys_build, kind="stable")
    keys_build = keys_build[order]
    build_rows = build_rows[order]
    probe_rows = _np.flatnonzero(~probe_none)
    keys_probe = probe_codes[probe_rows]
    starts = _np.searchsorted(keys_build, keys_probe, side="left")
    ends = _np.searchsorted(keys_build, keys_probe, side="right")
    counts = ends - starts
    total = int(counts.sum())
    probe_sel = _np.repeat(probe_rows, counts)
    offsets = _np.repeat(_np.cumsum(counts) - counts, counts)
    flat = _np.arange(total, dtype=_np.int64) - offsets + _np.repeat(starts, counts)
    build_sel = build_rows[flat]
    return probe_sel, build_sel


def build_columnar_relation(
    database: Database,
    path,  # JoinPath (not imported to avoid a cycle with repro.db.joins)
    encoded_of: Callable[[str], EncodedTable],
) -> ColumnarRelation:
    """Materialize the equi-join over ``path`` as a columnar relation.

    Follows the same edge order and join semantics as the row-wise
    ``JoinGraph._build_relation``: NULL key cells never match, keys compare
    by normalized string (here: by dictionary code), and column order is the
    concatenation of each table's columns in join order.
    """
    first = database.table(path.tables[0])
    encoded = encoded_of(first.name)
    column_refs: list[ColumnRef] = [
        ColumnRef(first.name, column.name) for column in first.columns
    ]
    if not path.edges:
        # One table: its encoded vectors are the relation (no gather).
        return ColumnarRelation(column_refs, encoded.vectors, len(first))
    # Per output column: which per-table row-index array and source vector.
    sources: list[tuple[int, ColumnVector]] = [(0, v) for v in encoded.vectors]
    indices = [_np.arange(len(first), dtype=_np.int64)]
    joined = {first.name}
    pending = list(path.edges)
    while pending:
        edge = next(
            (
                fk
                for fk in pending
                if fk.source_table in joined or fk.target_table in joined
            ),
            None,
        )
        if edge is None:
            raise JoinPathError("disconnected join tree")
        pending.remove(edge)
        if edge.source_table in joined:
            existing_col = ColumnRef(edge.source_table, edge.source_column)
            new_table = database.table(edge.target_table)
            new_key = edge.target_column
        else:
            existing_col = ColumnRef(edge.target_table, edge.target_column)
            new_table = database.table(edge.source_table)
            new_key = edge.source_column
        slot, probe_vector = sources[column_refs.index(existing_col)]
        probe_codes = probe_vector.codes[indices[slot]]
        probe_none = probe_vector.none_mask[indices[slot]]
        new_encoded = encoded_of(new_table.name)
        build_vector = new_encoded.vectors[new_table.column_index(new_key)]
        remap = _code_remap(build_vector.dictionary, probe_vector.dictionary)
        probe_sel, build_sel = _join_numpy(
            probe_codes, probe_none, build_vector.codes, build_vector.none_mask, remap
        )
        indices = [ix[probe_sel] for ix in indices]
        indices.append(build_sel)
        new_slot = len(indices) - 1
        column_refs.extend(
            ColumnRef(new_table.name, column.name) for column in new_table.columns
        )
        sources.extend((new_slot, v) for v in new_encoded.vectors)
        joined.add(new_table.name)
    vectors = [vector.take(indices[slot]) for slot, vector in sources]
    return ColumnarRelation(column_refs, vectors, len(indices[0]))


# ----------------------------------------------------------------------
# Vectorized cube execution
# ----------------------------------------------------------------------


#: Per partial field, the start and the fold of its rollup. ``min``/``max``
#: keep the earlier of equal extremes, and a group without numbers holds
#: the extremes' infinities, so it never wins.
_FOLDS = {
    "rows": (0, add),
    "count": (0, add),
    "ncount": (0, add),
    "total": (0.0, add),
    "minimum": (_np.inf, min),
    "maximum": (-_np.inf, max),
}


def _roll_up(values: list, cell_of: list[list[int]], n_cells: int, field: str) -> list:
    """Per rolled-up cell, the per-group ``values`` of one partial folded
    over the groups the cell covers, in group order (so a float SUM adds
    per-group subtotals)."""
    start, fold = _FOLDS[field]
    rolled = [start] * n_cells
    for value, cells in zip(values, cell_of):
        for cell in cells:
            rolled[cell] = fold(rolled[cell], value)
    return rolled


class _ColumnStats:
    """Per-group reductions of one aggregation column (phase 1 output).

    Every field is a plain list indexed by group. ``distinct`` is what
    :meth:`distinct_counts` rolls up: the ``(groups, codes)`` arrays of the
    distinct non-missing (group, code) pairs plus the dictionary size.
    """

    __slots__ = ("rows", "count", "total", "ncount", "minimum", "maximum", "distinct", "_rolled")

    def __init__(self, rows: list[int]) -> None:
        n_groups = len(rows)
        self.rows = rows
        self.count = [0] * n_groups
        self.total = [0.0] * n_groups
        self.ncount = [0] * n_groups
        self.minimum = [0.0] * n_groups
        self.maximum = [0.0] * n_groups
        self.distinct = None
        self._rolled: dict[str, list] = {}

    def rolled(self, field: str, cell_of: list[list[int]], n_cells: int) -> list:
        """One partial per rolled-up cell, rolled up on first use (a distinct
        count is a union, not a fold, so it rolls up from the pair arrays)."""
        rolled = self._rolled.get(field)
        if rolled is None:
            if field == "distinct":
                rolled = self.distinct_counts(cell_of, n_cells)
            else:
                rolled = _roll_up(getattr(self, field), cell_of, n_cells, field)
            self._rolled[field] = rolled
        return rolled

    def distinct_counts(self, cell_of: list[list[int]], n_cells: int) -> list[int]:
        """Distinct non-missing codes per rolled-up cell; ``cell_of[g]``
        lists the cells group ``g`` rolls up into, one per dimension subset
        (so no two entries of a row are the same cell)."""
        pair_groups, pair_codes, n_codes = self.distinct
        counts = _np.zeros(n_cells, dtype=_np.int64)
        # One subset at a time: scratch stays bounded by the pair count.
        for cells in _np.array(cell_of, dtype=_np.int64).T:
            pairs, _ = _histogram(
                cells[pair_groups] * n_codes + pair_codes, n_cells * n_codes
            )
            counts += _np.bincount(pairs // n_codes, minlength=n_cells)
        return counts.tolist()


#: An id histogram is counted densely -- one ``bincount`` slot per possible
#: id -- while the possible ids are within this multiple of the ids counted,
#: which bounds the scratch array by the input's own size; a wider id space
#: is sorted instead.
_DENSE_SLOTS_PER_ID = 4


def _histogram(ids, bound: int):
    """The distinct values of ``ids`` (integers in ``range(bound)``) in
    ascending order, and how often each occurs."""
    if bound <= _DENSE_SLOTS_PER_ID * len(ids):
        counts = _np.bincount(ids, minlength=bound)
        values = _np.flatnonzero(counts)
        return values, counts[values]
    return _np.unique(ids, return_counts=True)


def _group_rows(relation: ColumnarRelation, cube):
    """Phase 0: one combined group id per row, compacted after each dimension.

    Returns ``(inverse, group_keys)`` where ``inverse`` assigns each row its
    compact group index and ``group_keys[g]`` is the tuple of bucket labels
    (literal string or ``DEFAULT_LITERAL``) of group ``g``, groups in
    ascending order of their combined id. Compacting after each dimension
    keeps combined ids bounded by ``n_groups * radix`` and immune to radix
    overflow.
    """
    n_rows = len(relation)
    if n_rows == 0:
        # No rows: no groups at all (matches the row-wise phase 1).
        return _np.zeros(0, dtype=_np.int64), []
    inverse = _np.zeros(n_rows, dtype=_np.int64)
    group_keys: list[tuple[str, ...]] = [()]
    for dim, literals in cube.literals:
        vector = relation.vector(dim)
        dictionary = vector.dictionary
        bucket_values = [DEFAULT_LITERAL]
        lut = [0] * len(dictionary)
        for literal in sorted(literals):
            code = dictionary.code_of(literal)
            if code is None:
                continue  # literal never occurs: only the default bucket sees it
            lut[code] = len(bucket_values)
            bucket_values.append(literal)
        radix = len(bucket_values)
        combined = inverse * radix + _np.array(lut, dtype=_np.int64)[vector.codes]
        bound = len(group_keys) * radix
        present, _ = _histogram(combined, bound)
        if bound <= _DENSE_SLOTS_PER_ID * n_rows:
            remap = _np.zeros(bound, dtype=_np.int64)
            remap[present] = _np.arange(len(present))
            inverse = remap[combined]
        else:
            inverse = _np.searchsorted(present, combined)
        present = present.tolist()
        group_keys = [
            group_keys[value // radix] + (bucket_values[value % radix],)
            for value in present
        ]
    return inverse, group_keys


def _column_stats_numpy(
    relation, inverse, rows: list[int], column: ColumnRef | None, track_distinct: bool
) -> _ColumnStats:
    """Reduce from the (group, code) histogram; only ``total`` reads rows
    (see the module docstring)."""
    stats = _ColumnStats(rows)
    if column is None:
        return stats
    n_groups = len(rows)
    vector = relation.vector(column)
    dictionary = vector.dictionary
    codes = vector.codes
    n_codes = len(dictionary)
    pairs, pair_counts = _histogram(inverse * n_codes + codes, n_groups * n_codes)
    pair_groups, pair_codes = _np.divmod(pairs, n_codes)
    present = pair_codes != 0
    stats.count = _group_sums(pair_groups[present], pair_counts[present], n_groups)
    numeric = dictionary.numeric_arr[pair_codes]
    numeric_groups = pair_groups[numeric]
    stats.ncount = _group_sums(numeric_groups, pair_counts[numeric], n_groups)
    numbers = dictionary.numbers_arr[pair_codes[numeric]]
    minimum = _np.full(n_groups, _np.inf)
    maximum = _np.full(n_groups, -_np.inf)
    _np.minimum.at(minimum, numeric_groups, numbers)
    _np.maximum.at(maximum, numeric_groups, numbers)
    stats.minimum = minimum.tolist()
    stats.maximum = maximum.tolist()
    numeric_rows = dictionary.numeric_arr[codes]
    stats.total = _np.bincount(
        inverse[numeric_rows],
        weights=dictionary.numbers_arr[codes][numeric_rows],
        minlength=n_groups,
    ).tolist()
    if track_distinct:
        stats.distinct = (pair_groups[present], pair_codes[present], n_codes)
    return stats


def _group_sums(groups, counts, n_groups: int) -> list[int]:
    """Per group, the sum of the integer ``counts`` filed under it."""
    sums = _np.zeros(n_groups, dtype=_np.int64)
    _np.add.at(sums, groups, counts)
    return sums.tolist()


def execute_cube_columnar(relation: ColumnarRelation, cube, budget=None):
    """Execute a cube over a columnar relation.

    Phase 1 reduces every basis aggregate per fully-specified group with
    array kernels; phase 2 maps each (of the few) groups to its cell in
    every dimension subset; phase 3 finalizes one aggregate at a time,
    through :func:`~repro.db.cube.finalize_cells`, into the per-aggregate
    maps of :class:`~repro.db.cube.CubeResult`, rolling each partial it
    reads up to the cells once, in Python (distinct counts from the pair
    arrays, for all cells at once). ``budget``
    (optional :class:`repro.budget.ResourceBudget`) bounds the rollup
    work — ``n_groups * 2^n_dims`` merges — before phase 2 starts, using
    the real group count rather than the engine's literal-based estimate.
    """
    inverse, group_keys = _group_rows(relation, cube)
    n_groups = len(group_keys)
    _check_rollup_budget(budget, n_groups, len(cube.dimensions))

    def column_of(spec) -> ColumnRef | None:
        return None if spec.column.is_star else spec.column

    # One stat bundle per distinct aggregation column ('*' columns share one).
    bundle_of: dict[ColumnRef | None, int] = {}
    for spec in cube.aggregates:
        bundle_of.setdefault(column_of(spec), len(bundle_of))
    # COUNT_DISTINCT on any spec of a column requires its distinct codes.
    needs_distinct = {
        column_of(spec)
        for spec in cube.aggregates
        if spec.function is AggregateFunction.COUNT_DISTINCT
    }
    rows = _np.bincount(inverse, minlength=n_groups).tolist()
    bundles = [
        _column_stats_numpy(relation, inverse, rows, key, key in needs_distinct)
        for key in bundle_of
    ]

    # Phase 2: each group's cell in every subset of dimensions.
    n_dims = len(cube.dimensions)
    masks: list[frozenset[int]] = []
    for size in range(n_dims + 1):
        masks.extend(frozenset(m) for m in combinations(range(n_dims), size))
    slots: dict[tuple, int] = {}
    cell_of: list[list[int]] = []
    for full_key in group_keys:
        cell_of.append([
            slots.setdefault(
                tuple(full_key[i] if i in kept else ALL for i in range(n_dims)),
                len(slots),
            )
            for kept in masks
        ])

    # Phase 3: finalize one aggregate at a time, each partial rolled up once.
    keys = list(slots)
    cell_rows = _roll_up(rows, cell_of, len(keys), "rows")
    cells = {}
    for spec in cube.aggregates:
        stats = bundles[bundle_of[column_of(spec)]]
        cells[spec] = finalize_cells(
            spec,
            keys,
            cell_rows,
            lambda field: stats.rolled(field, cell_of, len(keys)),
        )
    return CubeResult(cube, cells, rows_scanned=len(relation))
