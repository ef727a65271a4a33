"""Join-path discovery and equi-join materialization.

The paper connects tables "via equi-joins along foreign-key-primary-key join
paths" and "assumes that the database schema is acyclic" (Sections 4.4 and
6.3). Acyclicity makes the join path between any two tables unique, so the
FROM clause is fully determined by the columns a query references.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.db.columnar import (
    ColumnarRelation,
    EncodedTable,
    ExecutionBackend,
    build_columnar_relation,
)
from repro.db.refs import ColumnRef
from repro.db.schema import Database, ForeignKey
from repro.db.values import Value, normalize_string
from repro.errors import JoinPathError, UnknownTableError


class Relation:
    """A materialized (possibly joined) row set with table-qualified columns."""

    def __init__(
        self, columns: Sequence[ColumnRef], rows: list[tuple[Value, ...]]
    ) -> None:
        self.columns: tuple[ColumnRef, ...] = tuple(columns)
        self._index = {column: i for i, column in enumerate(self.columns)}
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def column_index(self, column: ColumnRef) -> int:
        try:
            return self._index[column]
        except KeyError:
            raise JoinPathError(f"column {column} not in relation") from None

    def has_column(self, column: ColumnRef) -> bool:
        return column in self._index

    def column_values(self, column: ColumnRef) -> Iterable[Value]:
        index = self.column_index(column)
        return (row[index] for row in self.rows)


class JoinPath:
    """The tables and foreign keys connecting a requested table set."""

    def __init__(self, tables: tuple[str, ...], edges: tuple[ForeignKey, ...]) -> None:
        self.tables = tables
        self.edges = edges

    def __repr__(self) -> str:
        return f"JoinPath(tables={self.tables}, edges={len(self.edges)})"


class JoinGraph:
    """Schema graph over tables, with memoized joined relations.

    Joined relations can be large; the memo keyed by the requested table set
    lets candidate evaluation reuse one materialization across thousands of
    query candidates (this is part of what makes Table 6's merged mode fast).

    ``backend`` selects the physical representation: ``ROW`` materializes
    tuple-based :class:`Relation` objects (the reference path), ``COLUMNAR``
    materializes dictionary-encoded
    :class:`~repro.db.columnar.ColumnarRelation` objects via a hash join on
    integer key codes; base tables are encoded once and memoized.
    """

    def __init__(
        self,
        database: Database,
        backend: ExecutionBackend = ExecutionBackend.ROW,
    ) -> None:
        self.database = database
        self.backend = backend
        self._adjacent: dict[str, list[ForeignKey]] = {
            table.name: [] for table in database.tables
        }
        for fk in database.foreign_keys:
            self._adjacent[fk.source_table].append(fk)
            self._adjacent[fk.target_table].append(fk)
        self._relations: dict[frozenset[str], Relation | ColumnarRelation] = {}
        self._encoded: dict[str, EncodedTable] = {}

    def join_path(self, tables: Iterable[str]) -> JoinPath:
        """Smallest join tree covering ``tables`` (unique on acyclic graphs)."""
        wanted = set(tables)
        for name in wanted:
            if not self.database.has_table(name):
                raise UnknownTableError(name)
        if not wanted:
            raise JoinPathError("join path requires at least one table")
        start = min(wanted)
        if len(wanted) == 1:
            return JoinPath((start,), ())
        parents = self._bfs_tree(start)
        needed_tables: set[str] = set()
        needed_edges: list[ForeignKey] = []
        seen_edges: set[tuple[str, str]] = set()
        for target in wanted:
            if target not in parents:
                raise JoinPathError(
                    f"no join path connects {start!r} and {target!r} "
                    f"in database {self.database.name!r}"
                )
            node = target
            needed_tables.add(node)
            while parents[node] is not None:
                parent, edge = parents[node]  # type: ignore[misc]
                key = tuple(sorted((node, parent)))
                if key not in seen_edges:
                    seen_edges.add(key)
                    needed_edges.append(edge)
                needed_tables.add(parent)
                node = parent
        ordered = self._order_tables(start, needed_tables, needed_edges)
        return JoinPath(tuple(ordered), tuple(needed_edges))

    def relation(self, tables: Iterable[str]) -> Relation | ColumnarRelation:
        """Materialized equi-join over the join tree covering ``tables``."""
        key = frozenset(tables)
        if key not in self._relations:
            self._relations[key] = self._build_relation(key)
        return self._relations[key]

    def is_materialized(self, tables: Iterable[str]) -> bool:
        """Whether the joined relation for ``tables`` is already memoized
        (lets callers attribute materialization cost to the first build)."""
        return frozenset(tables) in self._relations

    def encoded_table(self, name: str) -> EncodedTable:
        """A base table's encoding (each column encoded on first use),
        shared by fragment extraction and every join."""
        if name not in self._encoded:
            self._encoded[name] = EncodedTable(self.database.table(name))
        return self._encoded[name]

    def clear_memo(self) -> None:
        self._relations.clear()
        self._encoded.clear()

    def _bfs_tree(
        self, start: str
    ) -> dict[str, tuple[str, ForeignKey] | None]:
        parents: dict[str, tuple[str, ForeignKey] | None] = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for fk in self._adjacent[node]:
                neighbor = fk.target_table if fk.source_table == node else fk.source_table
                if neighbor not in parents:
                    parents[neighbor] = (node, fk)
                    queue.append(neighbor)
        return parents

    def _order_tables(
        self, start: str, tables: set[str], edges: list[ForeignKey]
    ) -> list[str]:
        """Order tables so each (after the first) joins to an earlier one."""
        ordered = [start]
        placed = {start}
        remaining = list(edges)
        while remaining:
            progress = False
            for edge in list(remaining):
                sides = {edge.source_table, edge.target_table}
                overlap = sides & placed
                if overlap:
                    new = sides - placed
                    ordered.extend(sorted(new))
                    placed |= new
                    remaining.remove(edge)
                    progress = True
            if not progress:
                raise JoinPathError("disconnected join tree")
        for table in sorted(tables - placed):
            ordered.append(table)
        return ordered

    def _build_relation(self, tables: frozenset[str]) -> Relation | ColumnarRelation:
        path = self.join_path(tables)
        database = self.database
        if self.backend is ExecutionBackend.COLUMNAR:
            return build_columnar_relation(database, path, self.encoded_table)
        first = database.table(path.tables[0])
        columns: list[ColumnRef] = [
            ColumnRef(first.name, column.name) for column in first.columns
        ]
        rows = [tuple(row) for row in first.rows]
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
            index = columns.index(existing_col)
            key_index = new_table.column_index(new_key)
            buckets: dict[str, list[tuple[Value, ...]]] = {}
            for row in new_table.rows:
                cell = row[key_index]
                if cell is None:
                    continue
                buckets.setdefault(normalize_string(cell), []).append(row)
            new_rows: list[tuple[Value, ...]] = []
            for row in rows:
                cell = row[index]
                if cell is None:
                    continue
                for match in buckets.get(normalize_string(cell), ()):
                    new_rows.append(row + match)
            columns.extend(
                ColumnRef(new_table.name, column.name) for column in new_table.columns
            )
            rows = new_rows
            joined.add(new_table.name)
        return Relation(columns, rows)
