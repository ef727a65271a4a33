"""Storage adapters behind the query engine.

Public surface re-exported here:

- :class:`StorageAdapter` — the adapter contract; :class:`SimpleResult` —
  the row oracle's per-query answer;
- :data:`BACKENDS`, :func:`create_adapter`, :func:`canonical_backend_name`
  — the closed set of backends (the successor of the old two-value
  ``ExecutionBackend`` enum as the engine's backend-selection surface);
- :func:`load_sqlite_database`, :class:`SqlBackedTable` — out-of-core
  SQLite-file databases.
"""

from repro.db.adapters.base import (
    BACKENDS,
    SimpleResult,
    StorageAdapter,
    canonical_backend_name,
    create_adapter,
)
from repro.db.adapters.sqlite import (
    SqlBackedTable,
    SqliteAdapter,
    load_sqlite_database,
)
from repro.db.adapters.memory import ColumnarAdapter, InMemoryAdapter, RowAdapter

__all__ = [
    "BACKENDS",
    "ColumnarAdapter",
    "InMemoryAdapter",
    "RowAdapter",
    "SimpleResult",
    "SqlBackedTable",
    "SqliteAdapter",
    "StorageAdapter",
    "canonical_backend_name",
    "create_adapter",
    "load_sqlite_database",
]
