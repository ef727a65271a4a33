"""Pluggable storage adapters behind the query engine.

Public surface re-exported here:

- :class:`StorageAdapter`, :class:`AdapterCapabilities` — the adapter
  contract; :class:`SimpleResult` — the row oracle's per-query answer;
- :func:`create_adapter`, :func:`adapter_names`, :func:`adapter_class`,
  :func:`canonical_backend_name`, :func:`register_adapter` — the registry
  (the successor of the old two-value ``ExecutionBackend`` enum as the
  engine's backend-selection surface);
- :func:`load_sqlite_database`, :class:`SqlBackedTable` — out-of-core
  SQLite-file databases.
"""

from repro.db.adapters.base import (
    AdapterCapabilities,
    SimpleResult,
    StorageAdapter,
    adapter_class,
    adapter_names,
    canonical_backend_name,
    create_adapter,
    register_adapter,
)
from repro.db.adapters.sqlite import (
    SqlBackedTable,
    SqliteAdapter,
    load_sqlite_database,
)
from repro.db.adapters.memory import ColumnarAdapter, InMemoryAdapter, RowAdapter
from repro.db.adapters.duckdb import DuckdbAdapter

__all__ = [
    "AdapterCapabilities",
    "ColumnarAdapter",
    "DuckdbAdapter",
    "InMemoryAdapter",
    "RowAdapter",
    "SimpleResult",
    "SqlBackedTable",
    "SqliteAdapter",
    "StorageAdapter",
    "adapter_class",
    "adapter_names",
    "canonical_backend_name",
    "create_adapter",
    "load_sqlite_database",
    "register_adapter",
]
