"""SQLite pushdown adapter (stdlib-only) and out-of-core database loading.

Two modes share one adapter and one generated SQL text (see
:mod:`repro.db.adapters.sqlbase` for the shadow schema):

- **Loaded databases** (built from CSVs or constructed in tests) are
  encoded once, at adapter construction, into shadow tables of an
  in-memory SQLite database — the adapter's only copy of the data; all
  joins, grouping, and aggregation then push down as SQL over integers
  and numbers.
- **File-backed databases** (:func:`load_sqlite_database`) never load
  rows into Python at all. Tables are :class:`SqlBackedTable` instances
  whose ``rows`` stream from the file in keyset-paginated chunks, and the
  adapter opens the file read-only (``mode=ro``). Each column a
  statement touches gets its shadow on first use: one
  ``INSERT ... SELECT`` into a private temporary database
  (``ATTACH DATABASE ''`` — SQLite keeps it in its page cache, spills it
  to an unlinked temporary file, and drops it when the connection
  closes). That statement is the only place a Python scalar function
  (``rimage``) runs: once per row per touched column, never per
  statement. So a claim over a 10M-row SQLite file verifies without
  materializing a single column in Python and without writing to, or
  beside, the source file.

Cell fidelity of the shadow images in SQLite (``ShadowDictionary.images``):

- ``bool`` and ``float('nan')`` cells are non-numeric, like in the
  in-memory engine: they keep their normalized-string code (``"true"``,
  ``"nan"``) and a NULL number;
- ``int`` cells beyond 64 bits (SQLite integers are int64) keep the
  code of the decimal string they normalize to; their number is the
  float nearest to them.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
from collections.abc import Sequence
from contextlib import closing
from pathlib import Path

from repro.db.adapters.sqlbase import SqlAdapterBase
from repro.db.refs import ColumnRef
from repro.db.schema import (
    Column,
    Database,
    ForeignKey,
    SchemaError,
    Table,
    infer_column_type,
)
from repro.db.sql import quote_identifier
from repro.db.values import Value

#: Rows per page when streaming a file-backed table into Python.
_ROW_PAGE = 2048


def _open_read_only(path: str) -> sqlite3.Connection:
    return sqlite3.connect(
        f"file:{path}?mode=ro", uri=True, check_same_thread=False
    )


class SqliteAdapter(SqlAdapterBase):
    """The SQL tier: pushes execution into stdlib ``sqlite3``."""

    name = "sqlite"

    def _connect(self) -> sqlite3.Connection:
        path = getattr(self.database, "sqlite_path", None)
        #: File-backed only: shadow tables built so far.
        self._built: set[str] | None = None if path is None else set()
        if path is None:
            connection = sqlite3.connect(":memory:", check_same_thread=False)
            self._load_tables(connection)
            connection.commit()
            return connection
        connection = _open_read_only(os.fspath(path))
        connection.execute("ATTACH DATABASE '' AS shadow")
        return connection

    def _source(self, table: str, columns: set[str]) -> str:
        if self._built is None:
            return super()._source(table, columns)
        i, positions = self._positions[table]
        if not columns:
            # Row counts need no image: scan the source itself.
            return f"main.{quote_identifier(table)} AS t{i}"
        names = []
        images = []
        for column in sorted(columns, key=positions.__getitem__):
            j = positions[column]
            name = f"t{i}c{j}"
            if name not in self._built:
                self._build_shadow(name, ColumnRef(table, column))
                self._built.add(name)
            names.append(name)
            images += (f"{name}.{image} AS c{j}{image}" for image in "kn")
        joins = f"shadow.{names[0]}" + "".join(
            f" JOIN shadow.{name} ON {name}.id = {names[0]}.id"
            for name in names[1:]
        )
        return f"(SELECT {', '.join(images)} FROM {joins}) AS t{i}"

    def _build_shadow(self, name: str, ref: ColumnRef) -> None:
        """One touched column's images, keyed by the source rowid: the
        only statement that calls back into Python. A cell SQLite stores
        as INTEGER or REAL is its own number (it fits 64 bits and is no
        NaN), so only the code, and the number of other cells, need the
        call."""
        images = self.dictionary(ref).images
        connection = self._connection
        connection.create_function(
            "rimage", 2, lambda cell, image: images(cell)[image]
        )
        cell = quote_identifier(ref.column)
        native = f"typeof({cell}) IN ('integer', 'real')"
        insert = (
            f"INSERT INTO shadow.{name} SELECT {{}}, rimage({cell}, 0),"
            f" CASE WHEN {native} THEN {cell} ELSE rimage({cell}, 1) END"
            f" FROM main.{quote_identifier(ref.table)}"
        )
        with connection:  # commit (releasing the source's read lock) or undo
            connection.execute("BEGIN")
            connection.execute(
                f"CREATE TABLE shadow.{name} (id INTEGER PRIMARY KEY, k, n)"
            )
            try:
                connection.execute(insert.format("rowid"))
            except sqlite3.OperationalError:
                # WITHOUT ROWID table: number the rows in primary-key
                # order, the same for every column whichever index the
                # scan uses.
                keys = connection.execute(
                    "SELECT name FROM pragma_table_info(?)"
                    " WHERE pk ORDER BY pk",
                    (ref.table,),
                )
                order = ", ".join(quote_identifier(key) for (key,) in keys)
                connection.execute(
                    insert.format("NULL") + f" ORDER BY {order}"
                )


class SqlBackedTable(Table):
    """A table whose rows live in a SQLite file, streamed on demand.

    ``rows`` is a lazy sequence: ``len()`` is a pushed-down ``COUNT(*)``
    and iteration pages through the file in keyset-paginated chunks, so
    code written against :class:`~repro.db.schema.Table` (keyword
    matching, type inference, the row/columnar adapters) still works —
    it just streams. The SQLite adapter never touches ``rows`` at all.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        sqlite_path: str | os.PathLike,
        primary_key: str | None = None,
    ) -> None:
        super().__init__(name, columns, rows=(), primary_key=primary_key)
        self.sqlite_path = os.fspath(sqlite_path)
        self.rows = _SqlRows(self.sqlite_path, name)

    def append(self, row: Sequence[Value]) -> None:
        if isinstance(getattr(self, "rows", None), _SqlRows):
            raise SchemaError(
                f"table {self.name!r} is backed by a read-only SQLite file"
            )
        super().append(row)

    def with_columns(self, columns: Sequence[Column]) -> "SqlBackedTable":
        if len(columns) != len(self.columns):
            raise SchemaError(
                f"with_columns: expected {len(self.columns)} columns, "
                f"got {len(columns)}"
            )
        return SqlBackedTable(
            self.name, columns, self.sqlite_path, primary_key=self.primary_key
        )

    def content_token(self) -> str:
        """Cheap content identity for fingerprinting: file identity plus
        size and mtime, instead of hashing millions of cells."""
        stat = os.stat(self.sqlite_path)
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    os.path.abspath(self.sqlite_path),
                    self.name,
                    stat.st_size,
                    stat.st_mtime_ns,
                )
            ).encode()
        )
        return digest.hexdigest()


class _SqlRows(Sequence):
    """Lazy row sequence over one SQLite table (read-only).

    Every operation opens its own connection and closes it when done
    (an abandoned iteration closes it when the generator is collected),
    so a table holds no handle on the file between uses.
    """

    def __init__(self, path: str, table: str) -> None:
        self._path = path
        self._table = table
        self._count: int | None = None

    def __len__(self) -> int:
        if self._count is None:
            with closing(_open_read_only(self._path)) as connection:
                self._count = connection.execute(
                    f"SELECT COUNT(*) FROM {quote_identifier(self._table)}"
                ).fetchone()[0]
        return self._count

    def __iter__(self):
        name = quote_identifier(self._table)
        with closing(_open_read_only(self._path)) as connection:
            try:
                # Keyset pagination: O(1) memory, no quadratic OFFSET
                # rescans.
                last = None
                while True:
                    if last is None:
                        cursor = connection.execute(
                            f"SELECT rowid, * FROM {name} "
                            f"ORDER BY rowid LIMIT {_ROW_PAGE}"
                        )
                    else:
                        cursor = connection.execute(
                            f"SELECT rowid, * FROM {name} WHERE rowid > ? "
                            f"ORDER BY rowid LIMIT {_ROW_PAGE}",
                            (last,),
                        )
                    chunk = cursor.fetchall()
                    if not chunk:
                        return
                    for row in chunk:
                        yield row[1:]
                    last = chunk[-1][0]
            except sqlite3.OperationalError:
                # WITHOUT ROWID tables: fall back to a single streaming
                # scan.
                cursor = connection.execute(f"SELECT * FROM {name}")
                while True:
                    chunk = cursor.fetchmany(_ROW_PAGE)
                    if not chunk:
                        return
                    yield from chunk

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(index)
        with closing(_open_read_only(self._path)) as connection:
            row = connection.execute(
                f"SELECT * FROM {quote_identifier(self._table)}"
                " LIMIT 1 OFFSET ?",
                (index,),
            ).fetchone()
        return tuple(row)


def load_sqlite_database(
    path: str | os.PathLike,
    name: str | None = None,
    *,
    sample_rows: int = 1000,
) -> Database:
    """Open a SQLite file as an out-of-core :class:`Database`.

    Schema (tables, columns, single-column foreign keys) comes from
    ``sqlite_master``/``PRAGMA``; column types are inferred from a
    ``sample_rows``-row prefix sample. Rows are never loaded eagerly —
    every table is a :class:`SqlBackedTable`. The returned database
    carries ``sqlite_path``, which :class:`SqliteAdapter` detects to
    query the file directly (zero-copy pushdown).
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise SchemaError(f"no such SQLite database: {path!r}")
    connection = _open_read_only(path)
    try:
        names = [
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]
        if not names:
            raise SchemaError(f"SQLite database {path!r} has no tables")
        tables = []
        for table_name in names:
            quoted = quote_identifier(table_name)
            info = connection.execute(
                f"PRAGMA table_info({quoted})"
            ).fetchall()
            sample = connection.execute(
                f"SELECT * FROM {quoted} LIMIT ?", (sample_rows,)
            ).fetchall()
            columns = [
                Column(
                    column_row[1],
                    infer_column_type(row[i] for row in sample),
                )
                for i, column_row in enumerate(info)
            ]
            pk_columns = [row[1] for row in info if row[5]]
            tables.append(
                SqlBackedTable(
                    table_name,
                    columns,
                    path,
                    primary_key=pk_columns[0] if len(pk_columns) == 1 else None,
                )
            )
        foreign_keys = []
        for table_name in names:
            quoted = quote_identifier(table_name)
            by_id: dict[int, list] = {}
            for row in connection.execute(
                f"PRAGMA foreign_key_list({quoted})"
            ):
                by_id.setdefault(row[0], []).append(row)
            for rows in by_id.values():
                if len(rows) != 1:
                    continue  # composite FKs are outside the paper's model
                _, _, target, source_column, target_column, *_ = rows[0]
                if target not in names:
                    continue
                if target_column is None:
                    # FK to the implicit primary key of the target table.
                    target_table = next(
                        t for t in tables if t.name == target
                    )
                    if target_table.primary_key is None:
                        continue
                    target_column = target_table.primary_key
                foreign_keys.append(
                    ForeignKey(table_name, source_column, target, target_column)
                )
    finally:
        connection.close()
    database = Database(
        name or Path(path).stem or "database", tables, foreign_keys
    )
    database.sqlite_path = path
    return database
