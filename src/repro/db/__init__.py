"""In-memory relational engine (Postgres substitute).

This subpackage provides everything AggChecker needs from a database system:

- typed :class:`~repro.db.schema.Column`/:class:`~repro.db.schema.Table`
  definitions assembled into a :class:`~repro.db.schema.Database` with
  primary-key/foreign-key constraints,
- CSV loading with type inference (:mod:`repro.db.csvio`) and data
  dictionaries (:mod:`repro.db.datadict`),
- join-path discovery over acyclic schema graphs (:mod:`repro.db.joins`),
- the paper's *Simple Aggregate Query* model (:mod:`repro.db.query`) with
  SQL rendering and parsing (:mod:`repro.db.sql`),
- a direct executor (:mod:`repro.db.executor`, the ``NAIVE`` oracle), a
  ``GROUP BY CUBE`` operator with ``InOrDefault`` literal collapsing
  (:mod:`repro.db.cube`),
- three storage adapters (:mod:`repro.db.adapters`) — in-memory
  columnar/row execution plus SQL pushdown into stdlib SQLite, including
  out-of-core SQLite-file databases,
- and a batch :class:`~repro.db.engine.QueryEngine` implementing the paper's
  query merging and result caching (Section 6) with execution statistics.
"""

from repro.db.adapters import (
    BACKENDS,
    SqlBackedTable,
    StorageAdapter,
    canonical_backend_name,
    create_adapter,
    load_sqlite_database,
)
from repro.db.aggregates import AggregateFunction
from repro.db.columnar import ColumnarRelation, ExecutionBackend
from repro.db.csvio import load_csv, load_csv_text
from repro.db.cube import CubeQuery, CubeResult
from repro.db.diskcache import DiskCubeCache, database_fingerprint, fingerprint_of
from repro.db.engine import (
    EngineConfig,
    EngineStats,
    ExecutionMode,
    QueryEngine,
)
from repro.db.executor import execute_query
from repro.db.joins import JoinGraph, JoinPath
from repro.db.predicates import Predicate
from repro.db.query import AggregateSpec, ColumnRef, SimpleAggregateQuery, STAR
from repro.db.schema import Column, ColumnType, Database, ForeignKey, Table
from repro.db.sql import (
    parse_query,
    quote_identifier,
    render_sql,
    render_sql_parameterized,
)

__all__ = [
    "AggregateFunction",
    "AggregateSpec",
    "BACKENDS",
    "Column",
    "ColumnRef",
    "ColumnType",
    "ColumnarRelation",
    "CubeQuery",
    "CubeResult",
    "Database",
    "DiskCubeCache",
    "EngineConfig",
    "EngineStats",
    "ExecutionBackend",
    "ExecutionMode",
    "ForeignKey",
    "JoinGraph",
    "JoinPath",
    "Predicate",
    "QueryEngine",
    "STAR",
    "SimpleAggregateQuery",
    "SqlBackedTable",
    "StorageAdapter",
    "Table",
    "canonical_backend_name",
    "create_adapter",
    "database_fingerprint",
    "fingerprint_of",
    "execute_query",
    "load_csv",
    "load_csv_text",
    "load_sqlite_database",
    "parse_query",
    "quote_identifier",
    "render_sql",
    "render_sql_parameterized",
]
