"""Schema objects: columns, tables, foreign keys, databases.

The paper assumes a relational database whose tables are connected by
primary-key/foreign-key constraints forming an *acyclic* schema graph
(Section 6.3). :class:`Database` validates that property on construction.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from repro.db.values import (
    Value,
    coerce_number,
    factorize,
    is_missing,
    is_numeric,
)
from repro.errors import (
    CyclicSchemaError,
    SchemaError,
    UnknownColumnError,
    UnknownTableError,
)


#: Rows whose distinct cells :meth:`Table.distinct_values` folds at a time.
_DISTINCT_CHUNK = 65_536


class ColumnType(enum.Enum):
    """Coarse column types; only numeric columns qualify as aggregation
    columns (paper Section 4.2)."""

    STRING = "string"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Column:
    """A named, typed column, optionally described by a data dictionary."""

    name: str
    type: ColumnType = ColumnType.STRING
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")


class Table:
    """A named table holding rows as tuples in column order."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        rows: Iterable[Sequence[Value]] = (),
        primary_key: str | None = None,
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self._index = {column.name: i for i, column in enumerate(columns)}
        self.rows: list[tuple[Value, ...]] = []
        for row in rows:
            self.append(row)
        if primary_key is not None and primary_key not in self._index:
            raise UnknownColumnError(name, primary_key)
        self.primary_key = primary_key

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self.columns)} cols, {len(self)} rows)"

    def append(self, row: Sequence[Value]) -> None:
        """Append one row, padding/validating against the column count."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row width {len(row)} != {len(self.columns)} "
                f"for table {self.name!r}"
            )
        self.rows.append(tuple(row))

    def has_column(self, name: str) -> bool:
        return name in self._index

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(self.name, name) from None

    def column_values(self, name: str) -> Iterator[Value]:
        """Yield the cells of one column across all rows."""
        index = self.column_index(name)
        for row in self.rows:
            yield row[index]

    def numeric_columns(self) -> list[Column]:
        return [c for c in self.columns if c.type is ColumnType.NUMERIC]

    def with_columns(self, columns: Sequence[Column]) -> "Table":
        """Clone this table with replaced column metadata, sharing row
        storage. Storage-backed subclasses override this so metadata
        updates (data dictionaries) never force row materialization."""
        if len(columns) != len(self.columns):
            raise SchemaError(
                f"with_columns: expected {len(self.columns)} columns, "
                f"got {len(columns)}"
            )
        clone = Table(self.name, columns, primary_key=self.primary_key)
        clone.rows = self.rows
        return clone

    def distinct_values(self, name: str, limit: int | None = None) -> list[Value]:
        """Distinct non-missing values of a column in first-seen order:
        the distinct raw cells of one row chunk at a time, so Python work
        is per distinct cell and a ``limit`` ends a (streamed) scan early."""
        seen: dict[str, Value] = {}
        cells = map(itemgetter(self.column_index(name)), self.rows)
        while chunk := tuple(islice(cells, _DISTINCT_CHUNK)):
            for cell in factorize(chunk)[0]:
                if is_missing(cell):
                    continue
                key = str(cell).strip().lower()
                if key not in seen:
                    seen[key] = cell
                    if limit is not None and len(seen) >= limit:
                        return list(seen.values())
        return list(seen.values())


@dataclass(frozen=True)
class ForeignKey:
    """``source.column`` references ``target.column`` (a primary key)."""

    source_table: str
    source_column: str
    target_table: str
    target_column: str

    def __str__(self) -> str:
        return (
            f"{self.source_table}.{self.source_column} -> "
            f"{self.target_table}.{self.target_column}"
        )


class Database:
    """A set of tables plus foreign keys forming an acyclic schema graph."""

    def __init__(
        self,
        name: str,
        tables: Sequence[Table],
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> None:
        if not name:
            raise SchemaError("database name must be non-empty")
        if not tables:
            raise SchemaError(f"database {name!r} must have at least one table")
        table_names = [table.name for table in tables]
        if len(set(table_names)) != len(table_names):
            raise SchemaError(f"database {name!r} has duplicate table names")
        self.name = name
        self.tables: tuple[Table, ...] = tuple(tables)
        self._tables = {table.name: table for table in tables}
        for fk in foreign_keys:
            self._validate_foreign_key(fk)
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys)
        self._check_acyclic()

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        source = self.table(fk.source_table)
        target = self.table(fk.target_table)
        source.column(fk.source_column)
        target.column(fk.target_column)

    def _check_acyclic(self) -> None:
        """Reject cyclic schema graphs (undirected cycles break join-path
        uniqueness, which Section 6.3 relies on)."""
        adjacency: dict[str, set[str]] = {t.name: set() for t in self.tables}
        for fk in self.foreign_keys:
            if fk.source_table == fk.target_table:
                raise CyclicSchemaError(f"self-referencing foreign key: {fk}")
            if fk.target_table in adjacency[fk.source_table]:
                raise CyclicSchemaError(
                    f"parallel foreign keys between {fk.source_table!r} "
                    f"and {fk.target_table!r}"
                )
            adjacency[fk.source_table].add(fk.target_table)
            adjacency[fk.target_table].add(fk.source_table)
        seen: set[str] = set()
        for start in adjacency:
            if start in seen:
                continue
            stack = [(start, "")]
            while stack:
                node, parent = stack.pop()
                if node in seen:
                    raise CyclicSchemaError(
                        f"schema graph of database {self.name!r} is cyclic"
                    )
                seen.add(node)
                stack.extend(
                    (neighbor, node)
                    for neighbor in adjacency[node]
                    if neighbor != parent
                )

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={[t.name for t in self.tables]})"

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def single_table(self) -> Table:
        """Convenience for the common one-table case."""
        if len(self.tables) != 1:
            raise SchemaError(
                f"database {self.name!r} has {len(self.tables)} tables; "
                "single_table() requires exactly one"
            )
        return self.tables[0]

    def total_rows(self) -> int:
        return sum(len(table) for table in self.tables)


def infer_column_type(values: Iterable[Value], threshold: float = 0.9) -> ColumnType:
    """Infer NUMERIC when at least ``threshold`` of non-missing cells parse
    as numbers (scraped CSVs often contain a few stray strings)."""
    total = 0
    numeric = 0
    for value in values:
        if is_missing(value):
            continue
        total += 1
        if is_numeric(value) or coerce_number(value) is not None:
            numeric += 1
    if total == 0:
        return ColumnType.STRING
    return ColumnType.NUMERIC if numeric / total >= threshold else ColumnType.STRING
