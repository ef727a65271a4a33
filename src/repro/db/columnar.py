"""Columnar execution backend: dictionary-encoded relations.

Every scalar the engine needs from a cell -- its normalized string, its
numeric coercion, ``is None`` -- is a pure function of the raw cell, and
every cube reduction except SUM is a pure function of the per-group multiset
of dictionary codes. So Python runs once per *distinct raw cell*, array
kernels run over *(group, code) histograms*, and only SUM reads the rows.

- **Encode** (:func:`encode_column`): one :func:`~repro.db.values.factorize`
  pass maps the cells to first-seen raw ids in C (two raw cells are the same
  cell by :func:`~repro.db.values.cell_key`: class- and zero-sign-aware, so
  ``1``, ``1.0``, ``True``, ``"1"`` and ``0.0``, ``-0.0`` stay apart); code
  and ``is None`` are computed per distinct cell and gathered by raw id. Code 0 is the missing bucket (NULL and blank strings normalize to
  ``""``); the dictionary carries the normalized string and the number per
  code. The SQL shadow encoder and ``Table.distinct_values`` run the same pass.
- **Join** (:func:`build_columnar_relation`): hash joins on key codes; a
  one-table path hands the encoded vectors through untouched.
- **Cube** (:func:`execute_cube_columnar`), three phases. *Group*: per
  dimension a bucket LUT over codes, combined into one group id per row and
  compacted by ``bincount`` + remap LUT, no sort. *Reduce*: per aggregate
  column the (group, code) histogram gives COUNT, the numeric count, MIN, MAX
  and the distinct code sets from a few entries per group; SUM alone stays a
  row-order ``bincount(weights=...)``, because float addition is not
  associative and regrouping by code would move the last bits of every SUM
  and AVG. *Roll up*: the (few) groups merge into every dimension subset in
  Python; distinct counts roll up from the pair arrays. A histogram is
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

import numpy as _np

from repro.db.aggregates import AggregateFunction
from repro.db.cube import ALL, CubeResult, _check_rollup_budget
from repro.db.refs import ColumnRef
from repro.db.schema import Database, Table
from repro.db.values import (
    DEFAULT_LITERAL,
    Value,
    coerce_number,
    factorize,
    normalize_string,
)
from repro.errors import JoinPathError, QueryError


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
    :func:`~repro.db.values.is_missing`. ``numbers[code]`` caches the numeric
    coercion of the first raw cell seen for the code (cells sharing a
    normalized string coerce identically, modulo the ``inf`` caveat above).
    """

    __slots__ = ("values", "index", "numbers", "_numbers_arr", "_numeric_arr")

    def __init__(self) -> None:
        self.values: list[str] = [""]
        self.index: dict[str, int] = {"": 0}
        self.numbers: list[float | int | None] = [None]
        self._numbers_arr = None
        self._numeric_arr = None

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, cell: Value) -> int:
        key = normalize_string(cell)
        code = self.index.get(key)
        if code is None:
            code = len(self.values)
            self.values.append(key)
            self.index[key] = code
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


def encode_column(cells: Sequence[Value]) -> ColumnVector:
    """Dictionary-encode one column of raw cells.

    Code and ``is None`` are functions of the raw cell, so they are
    computed once per distinct raw cell (:func:`~repro.db.values.factorize`)
    and gathered to the rows by index. Codes come out in first-seen order,
    exactly as if every cell had been interned in turn.
    """
    dictionary = ColumnDictionary()
    distinct, index = factorize(cells)
    codes = [dictionary.intern(cell) for cell in distinct]
    none_mask = [cell is None for cell in distinct]
    index = _np.fromiter(index, dtype=_np.intp, count=len(cells))
    return ColumnVector(
        dictionary,
        _np.array(codes, dtype=_np.int64)[index],
        _np.array(none_mask, dtype=bool)[index],
    )


class EncodedTable:
    """All columns of one base table, encoded once and reused by every join."""

    __slots__ = ("name", "vectors")

    def __init__(self, name: str, vectors: list[ColumnVector]) -> None:
        self.name = name
        self.vectors = vectors


def encode_table(table: Table) -> EncodedTable:
    columns = list(zip(*table.rows)) or [()] * len(table.columns)
    return EncodedTable(table.name, [encode_column(cells) for cells in columns])


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


class _GroupAcc:
    """Mergeable per-cell accumulator used by the rollup phase.

    ``distinct`` is the cell's finished distinct count, set once the rollup
    knows every cell's groups (a union, not a sum, so it cannot be absorbed
    group by group).
    """

    __slots__ = ("rows", "count", "total", "ncount", "minimum", "maximum", "distinct")

    def __init__(self) -> None:
        self.rows = 0
        self.count = 0
        self.total = 0.0
        self.ncount = 0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.distinct = 0

    def absorb(self, stats: "_ColumnStats", group: int) -> None:
        self.rows += stats.rows[group]
        if stats.star:
            return
        self.count += stats.count[group]
        self.total += stats.total[group]
        self.ncount += stats.ncount[group]
        if stats.ncount[group]:
            minimum = stats.minimum[group]
            maximum = stats.maximum[group]
            if self.minimum is None or minimum < self.minimum:
                self.minimum = minimum
            if self.maximum is None or maximum > self.maximum:
                self.maximum = maximum

    def finalize(self, spec) -> Value:
        """The cell's value of ``spec``, with the executor's NULL rules."""
        fn = spec.function
        if fn is AggregateFunction.COUNT:
            return int(self.rows if spec.column.is_star else self.count)
        if fn is AggregateFunction.COUNT_DISTINCT:
            return self.distinct
        if self.ncount == 0:
            # No numeric cells: Sum/Avg/Min/Max are NULL.
            return None
        if fn is AggregateFunction.SUM:
            return float(self.total)
        if fn is AggregateFunction.AVG:
            # Divide by the numeric count (matches compute_plain).
            return float(self.total) / int(self.ncount)
        if fn is AggregateFunction.MIN:
            return float(self.minimum)
        if fn is AggregateFunction.MAX:
            return float(self.maximum)
        raise QueryError(f"unsupported basis aggregate {fn}")


class _ColumnStats:
    """Per-group reductions of one aggregation column (phase 1 output).

    Every field is a plain list indexed by group. ``distinct`` is what
    :meth:`distinct_counts` rolls up: the ``(groups, codes)`` arrays of the
    distinct non-missing (group, code) pairs plus the dictionary size.
    """

    __slots__ = ("star", "rows", "count", "total", "ncount", "minimum", "maximum", "distinct")

    def __init__(self, rows: list[int], star: bool) -> None:
        n_groups = len(rows)
        self.star = star
        self.rows = rows
        self.count = [0] * n_groups
        self.total = [0.0] * n_groups
        self.ncount = [0] * n_groups
        self.minimum = [0.0] * n_groups
        self.maximum = [0.0] * n_groups
        self.distinct = None

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
    stats = _ColumnStats(rows, star=column is None)
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
    array kernels; phase 2 rolls the (few) groups up to every dimension
    subset in Python, except the distinct counts, which each column rolls
    up for all cells at once; phase 3 finalizes into the standard
    :class:`~repro.db.cube.CubeResult` cell dictionary. ``budget``
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

    # Phase 2: roll up to every subset of dimensions.
    n_dims = len(cube.dimensions)
    masks: list[frozenset[int]] = []
    for size in range(n_dims + 1):
        masks.extend(frozenset(m) for m in combinations(range(n_dims), size))
    slots: dict[tuple, int] = {}
    rolled: list[list[_GroupAcc]] = []
    cell_of: list[list[int]] = []
    for group, full_key in enumerate(group_keys):
        group_cells = []
        for kept in masks:
            key = tuple(
                full_key[i] if i in kept else ALL for i in range(n_dims)
            )
            slot = slots.setdefault(key, len(rolled))
            if slot == len(rolled):
                rolled.append([_GroupAcc() for _ in bundles])
            for acc, bundle in zip(rolled[slot], bundles):
                acc.absorb(bundle, group)
            group_cells.append(slot)
        cell_of.append(group_cells)
    for position, bundle in enumerate(bundles):
        if bundle.distinct is not None:
            counts = bundle.distinct_counts(cell_of, len(rolled))
            for accs, count in zip(rolled, counts):
                accs[position].distinct = count

    # Phase 3: finalize.
    cells: dict[tuple, dict] = {}
    for key, accs in zip(slots, rolled):
        cells[key] = {
            spec: accs[bundle_of[column_of(spec)]].finalize(spec)
            for spec in cube.aggregates
        }
    return CubeResult(cube, cells, rows_scanned=len(relation))
