"""The SQL pushdown machinery of the SQLite adapter.

The engine's semantics are defined by the row-wise reference path:
case-insensitive normalized-string equality, forgiving numeric coercion
(``"$1,200"`` is 1200), NULL-and-blank missingness. A SQL engine knows
none of that — but all of it is a pure function of the stored cell, so
it is computed once per distinct cell value, in Python, and the SQL
engine only ever sees integers and numbers. Every source table ``i`` has
a **shadow** with two images per source column ``j``:

- ``c{j}k`` — the dictionary code of
  :func:`~repro.db.values.normalize_string` (a
  :class:`~repro.db.columnar.ColumnDictionary` code: 0 is the missing
  bucket; a NULL cell stays SQL NULL, because NULL joins nothing and
  equals nothing while a blank string does both). Columns linked by a
  foreign key share one dictionary, so joins are integer equi-joins;
- ``c{j}n`` — :func:`~repro.db.values.coerce_number` of the *raw* cell,
  integer or float as the reference path would see it, NULL if not
  numeric.

Generated statements name only ``t{i}`` and ``c{j}{k,n}`` — no source
identifier, cell value or claim literal is ever interpolated into SQL
text. What is bound (qmark style) is the dictionary *code* of each cube
literal, looked up in Python; bucket codes in result rows decode back to
the normalized literals. The adapter runs cube queries only: they emulate
``GROUP BY GROUPING SETS`` with one ``UNION ALL`` arm per dimension subset
over a shared base CTE (SQLite has no native GROUPING SETS); each arm
computes the per-cell partials (counts, numeric count, total, extremes)
with native ``COUNT/SUM/MIN/MAX``, and the columnar route's finalizer
(:func:`~repro.db.cube.finalize_cells`) applies the executor's NULL rules
in Python, so verdicts match the in-memory routes'.
"""

from __future__ import annotations

from itertools import chain, combinations, islice
from typing import TYPE_CHECKING

from repro.db.adapters.base import StorageAdapter
from repro.db.columnar import ColumnDictionary, ExecutionBackend
from repro.db.cube import ALL, PARTIALS_BY_FN, CellKey, CubeResult, finalize_cells
from repro.db.joins import JoinGraph, JoinPath
from repro.db.query import ColumnRef
from repro.db.values import (
    DEFAULT_LITERAL,
    Value,
    cell_key,
    coerce_number,
    factorize,
)
from repro.errors import JoinPathError, QueryError

if TYPE_CHECKING:
    from repro.budget import ResourceBudget
    from repro.db.cube import CubeQuery
    from repro.db.schema import Database, Table

#: Partial-aggregate fields an arm can compute per aggregation column
#: (:data:`~repro.db.cube.PARTIALS_BY_FN` names those each function needs;
#: star COUNT needs only the row count, which every statement computes),
#: in result-row layout order.
_FIELD_ORDER = ("count", "distinct", "ncount", "total", "minimum", "maximum")

#: The partial fields computed over a column's code image; the rest are
#: computed over its number image.
_CODE_FIELDS = ("count", "distinct")

#: Bucket code of the cube's ``InOrDefault`` default (real codes are >= 0).
_DEFAULT_CODE = -1

#: Shadow rows encoded per ``executemany`` when loading a database.
_LOAD_CHUNK = 10_000

#: Signed-64-bit range of a SQL INTEGER.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _storable(number: float | int | None) -> float | int | None:
    """Demote an integer beyond 64 bits to float (no SQL INTEGER holds
    it; a documented deviation for such extremes)."""
    if isinstance(number, int) and not _INT64_MIN <= number <= _INT64_MAX:
        return float(number)
    return number


class ShadowDictionary(ColumnDictionary):
    """A column's code space plus the memo of its cells' shadow images."""

    __slots__ = ("_images",)

    def __init__(self) -> None:
        super().__init__()
        self._images: dict[tuple, tuple] = {}

    def images(self, cell: Value) -> tuple:
        """``(k, n)`` of one raw cell (see the module docstring).

        Memoized per :func:`~repro.db.values.cell_key`, the engine's one
        notion of "the same raw cell".
        """
        if cell is None:
            return (None, None)
        key = cell_key(cell)
        images = self._images.get(key)
        if images is None:
            images = (self.intern(cell), _storable(coerce_number(cell)))
            self._images[key] = images
        return images


def _field_expr(field: str, k: str, n: str) -> str:
    """One partial field over a column's non-missing code (``k``: NULL
    for code 0 too) and number (``n``)."""
    if field == "count":
        return f"COUNT({k})"
    if field == "distinct":
        return f"COUNT(DISTINCT {k})"
    if field == "ncount":
        return f"COUNT({n})"
    if field == "total":
        return f"SUM({n})"
    if field == "minimum":
        return f"MIN({n})"
    if field == "maximum":
        return f"MAX({n})"
    raise QueryError(f"unknown partial field {field!r}")


class _CubePlan:
    """A compiled cube statement plus the recipe to decode its rows."""

    __slots__ = ("sql", "params", "n_dims", "columns", "needs", "literals")

    def __init__(self, cube: "CubeQuery", adapter: "SqlAdapterBase") -> None:
        tables = cube.tables or frozenset(
            {adapter.database.single_table().name}
        )
        n_dims = len(cube.dimensions)
        # Aggregation columns (deduped) and the partial fields each needs.
        self.needs: dict[ColumnRef, tuple[str, ...]] = {}
        for spec in cube.aggregates:
            if spec.column.is_star:
                continue
            fields = set(self.needs.get(spec.column, ()))
            fields.update(PARTIALS_BY_FN[spec.function])
            self.needs[spec.column] = tuple(
                f for f in _FIELD_ORDER if f in fields
            )
        self.columns = sorted(self.needs, key=str)
        self.n_dims = n_dims
        # The FROM clause first: on a file-backed database it is what
        # builds the shadows whose dictionaries the literals look up.
        source = adapter.join_clause(
            tables, (*cube.dimensions, *self.columns)
        )

        params: list[int] = []
        select_list: list[str] = []
        #: Per dimension, the code -> normalized literal table.
        self.literals: list[list[str]] = []
        for index, (dim, literals) in enumerate(cube.literals):
            dictionary = adapter.dictionary(dim)
            self.literals.append(dictionary.values)
            codes = sorted(
                code
                for code in map(dictionary.code_of, literals)
                if code is not None
            )
            expr = adapter.image(dim, "k")
            if codes and codes[0] == 0:
                # "" is a literal of interest: NULL cells bucket with it.
                expr = f"COALESCE({expr}, 0)"
            if codes:
                marks = ", ".join("?" for _ in codes)
                select_list.append(
                    f"CASE WHEN {expr} IN ({marks}) THEN {expr}"
                    f" ELSE {_DEFAULT_CODE} END AS b{index}"
                )
                params.extend(codes)
            else:
                select_list.append(f"{_DEFAULT_CODE} AS b{index}")
        for j, column in enumerate(self.columns):
            if self.needs[column][0] in _CODE_FIELDS:
                select_list.append(
                    f"NULLIF({adapter.image(column, 'k')}, 0) AS k{j}"
                )
            if self.needs[column][-1] not in _CODE_FIELDS:
                select_list.append(f"{adapter.image(column, 'n')} AS n{j}")
        # Double-underscored CTE name so no shadow table can collide
        # with the cube's shared scan.
        cte = '"__cube_base__"'
        base = f"SELECT {', '.join(select_list) or '1 AS one'} FROM {source}"

        arms: list[str] = []
        for size in range(n_dims + 1):
            for mask in combinations(range(n_dims), size):
                kept = set(mask)
                keys = [
                    f"b{i}" if i in kept else "NULL" for i in range(n_dims)
                ]
                aggs = ["COUNT(*)"]
                for j, column in enumerate(self.columns):
                    # CAST to DOUBLE: every cube route accumulates sums
                    # in a float, so cube SUM/AVG are float even over
                    # integers.
                    aggs.extend(
                        _field_expr(
                            field,
                            f"k{j}",
                            f"CAST(n{j} AS DOUBLE)"
                            if field == "total"
                            else f"n{j}",
                        )
                        for field in self.needs[column]
                    )
                arm = f"SELECT {', '.join(keys + aggs)} FROM {cte}"
                if mask:
                    arm += " GROUP BY " + ", ".join(f"b{i}" for i in mask)
                arms.append(arm)
        self.sql = f"WITH {cte} AS ({base}) " + " UNION ALL ".join(arms)
        self.params = tuple(params)

    def decode(
        self,
        cube: "CubeQuery",
        rows,
        budget: "ResourceBudget | None",
    ) -> CubeResult:
        """Assemble fetched partial rows into a canonical CubeResult."""
        n_dims = self.n_dims
        keys: list[CellKey] = []
        partials: list[tuple] = []
        rows_scanned = 0
        for row in rows:
            key = tuple(
                ALL
                if code is None
                else DEFAULT_LITERAL
                if code == _DEFAULT_CODE
                else literals[code]
                for code, literals in zip(row, self.literals)
            )
            group_rows = row[n_dims]
            if all(part is ALL for part in key):
                # The empty grouping-set arm aggregates the whole base
                # relation: its row count is the relation cardinality.
                rows_scanned = group_rows
            if group_rows == 0:
                # SQL returns one all-ALL row even over an empty relation;
                # the in-memory cube produces no cells for empty groups.
                continue
            keys.append(key)
            partials.append(row[n_dims:])
            if budget is not None:
                # Streaming guard: same limit the in-memory cube enforces before
                # rollup, applied to actual rolled cells as pages arrive.
                budget.check_cube(len(keys), "cube-rollup")
        # One column per partial, in result-row layout order: the row
        # count, then each aggregation column's fields.
        columns = zip(*partials)
        counts = next(columns, ())
        fields = {
            column: {field: next(columns, ()) for field in self.needs[column]}
            for column in self.columns
        }
        cells = {
            spec: finalize_cells(
                spec, keys, counts, fields.get(spec.column, {}).__getitem__
            )
            for spec in cube.aggregates
        }
        return CubeResult(cube, cells, rows_scanned=rows_scanned)


class SqlAdapterBase(StorageAdapter):
    """Template for an adapter that pushes execution into a SQL engine.

    The subclass provides ``_connect()`` (a DB-API connection holding the
    shadow tables). Everything else — shadow encoding, statement
    generation, paged fetching, partial finalization, cardinality
    pushdown — lives here.
    """

    pushdown = True

    #: Rows fetched per page when draining cube results (keeps peak
    #: memory bounded and lets budgets stop oversized results early).
    page_size = 4096

    def __init__(self, database: "Database") -> None:
        super().__init__(database)
        # Schema-only graph: join_path() and FK adjacency, never
        # .relation() — materialization stays inside the SQL engine.
        self.join_graph = JoinGraph(database, backend=ExecutionBackend.ROW)
        self._count_memo: dict[frozenset[str], int] = {}
        #: Shadow position of every table and column.
        self._positions: dict[str, tuple[int, dict[str, int]]] = {
            table.name: (
                i,
                {column.name: j for j, column in enumerate(table.columns)},
            )
            for i, table in enumerate(database.tables)
        }
        self._dictionaries = {
            (table.name, column.name): ShadowDictionary()
            for table in database.tables
            for column in table.columns
        }
        for fk in database.foreign_keys:
            # FK-linked columns share one code space: joins compare codes.
            merged = self._dictionaries[fk.target_table, fk.target_column]
            absorbed = self._dictionaries[fk.source_table, fk.source_column]
            for key, dictionary in self._dictionaries.items():
                if dictionary is absorbed:
                    self._dictionaries[key] = merged
        self._connection = self._connect()

    def _connect(self):  # pragma: no cover - abstract hook
        raise NotImplementedError

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _execute(self, sql: str, params: tuple = ()):
        self.pushdown_queries += 1
        return self._connection.execute(sql, params)

    # -- shadow schema -------------------------------------------------

    def dictionary(self, ref: ColumnRef) -> ShadowDictionary:
        return self._dictionaries[ref.table, ref.column]

    def image(self, ref: ColumnRef, image: str) -> str:
        """SQL expression of one shadow image (``k``/``n``)."""
        i, columns = self._positions[ref.table]
        return f"t{i}.c{columns[ref.column]}{image}"

    def _source(self, table: str, columns: set[str]) -> str:
        """``FROM`` item exposing ``columns``' images of ``table`` under
        the alias ``t{i}``. Loaded shadows hold every column."""
        return f"t{self._positions[table][0]}"

    def _load_tables(self, connection) -> None:
        """Create and fill one shadow table per table of a loaded
        database (the adapter's only copy of the data)."""
        for table in self.database.tables:
            i, columns = self._positions[table.name]
            ddl = ", ".join(f"c{j}k, c{j}n" for j in columns.values())
            connection.execute(f"CREATE TABLE t{i} ({ddl})")
            marks = ", ".join("?" for _ in range(2 * len(columns)))
            rows = self._shadow_rows(table)
            while chunk := list(islice(rows, _LOAD_CHUNK)):
                connection.executemany(
                    f"INSERT INTO t{i} VALUES ({marks})", chunk
                )

    def _shadow_rows(self, table: "Table"):
        """Each row of ``table`` as its flat ``k, n, k, n, ...``:
        images once per distinct raw cell of a column (the in-memory
        encoder's factorization pass), gathered to the rows by index."""
        columns = []
        for column, cells in zip(table.columns, zip(*table.rows)):
            distinct, index = factorize(cells)
            coder = self._dictionaries[table.name, column.name].images
            images = [coder(cell) for cell in distinct]
            columns.append(map(images.__getitem__, index))
        return map(tuple, map(chain.from_iterable, zip(*columns)))

    def join_clause(self, tables: frozenset[str], refs=()) -> str:
        """``FROM``/``JOIN`` text for the join tree covering ``tables``,
        exposing the columns in ``refs``.

        Mirrors the row-wise hash join exactly: inner equi-joins on the
        normalized key, here its shared dictionary code, with SQL-NULL
        keys excluded on both sides by ``=`` itself (blank-string keys
        *do* join — code 0 equals code 0 like ``""`` equals ``""``).
        """
        path: JoinPath = self.join_graph.join_path(tables)
        used: dict[str, set[str]] = {table: set() for table in path.tables}
        for ref in refs:
            if not ref.is_star:
                used[ref.table].add(ref.column)
        for fk in path.edges:
            used[fk.source_table].add(fk.source_column)
            used[fk.target_table].add(fk.target_column)
        sql = self._source(path.tables[0], used[path.tables[0]])
        joined = {path.tables[0]}
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
            source = ColumnRef(edge.source_table, edge.source_column)
            target = ColumnRef(edge.target_table, edge.target_column)
            new_table = (
                edge.target_table
                if edge.source_table in joined
                else edge.source_table
            )
            sql += (
                f" JOIN {self._source(new_table, used[new_table])}"
                f" ON {self.image(source, 'k')} = {self.image(target, 'k')}"
            )
            joined.add(new_table)
        return sql

    # -- cardinality ---------------------------------------------------

    def estimated_cardinality(self, tables: frozenset[str]) -> int:
        # Counting pushes down, so the "estimate" is exact and cheap.
        return self.exact_cardinality(tables)

    def exact_cardinality(self, tables: frozenset[str]) -> int:
        key = frozenset(tables)
        cached = self._count_memo.get(key)
        if cached is None:
            source = self.join_clause(key)
            cached = self._execute(
                f"SELECT COUNT(*) FROM {source}"
            ).fetchone()[0]
            self._count_memo[key] = cached
        return cached

    # -- cube path -----------------------------------------------------

    def execute_cube(
        self, cube: "CubeQuery", budget: "ResourceBudget | None" = None
    ) -> CubeResult:
        plan = _CubePlan(cube, self)
        cursor = self._execute(plan.sql, plan.params)
        return plan.decode(cube, self._pages(cursor), budget)

    def _pages(self, cursor):
        """Yield result rows in bounded pages (keyset-free cursor paging)."""
        while True:
            chunk = cursor.fetchmany(self.page_size)
            if not chunk:
                return
            yield from chunk
