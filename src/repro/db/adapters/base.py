"""The storage-adapter abstraction behind the query engine.

A :class:`StorageAdapter` owns everything physical about one database:
how relations are stored, how joined relations are (or are not)
materialized, and how cube/group-by execution runs. The
:class:`~repro.db.engine.QueryEngine` holds exactly one adapter and speaks
to it in canonical terms — :class:`~repro.db.cube.CubeQuery` in,
:class:`~repro.db.cube.CubeResult` (``{key: Value}`` per aggregate) out — so every
layer above the adapter (result cache, disk cube cache, scrub) is
storage-agnostic. The ``row`` adapter is the exception: it is the
``NAIVE`` oracle, runs no cubes, and answers one
:class:`~repro.db.query.SimpleAggregateQuery` at a time instead.

The backends are the closed set :data:`BACKENDS`; their names are the
engine's public backend surface (``ExecutionBackend`` is only the
in-memory ``JoinGraph`` switch).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, NamedTuple

from repro.db.values import Value
from repro.errors import QueryError

if TYPE_CHECKING:
    from repro.budget import ResourceBudget
    from repro.db.cube import CubeQuery, CubeResult
    from repro.db.joins import JoinGraph
    from repro.db.schema import Database


class SimpleResult(NamedTuple):
    """One ``NAIVE`` answer plus the rows the row adapter scanned."""

    value: Value
    rows_scanned: int


#: The storage backends, in display order: the one set ``EngineConfig``,
#: :func:`create_adapter` and every CLI ``--backend`` accept.
BACKENDS = ("columnar", "row", "sqlite")


class StorageAdapter(ABC):
    """Owns relation storage and execution for one database.

    Subclasses set ``name`` (one of :data:`BACKENDS`) and expose a
    ``join_graph`` for schema-level join-path questions. The two mutable
    counters are mirrored into :class:`~repro.db.engine.EngineStats` by
    the engine after every call:

    - ``pushdown_queries``: statements executed inside an external engine;
    - ``rows_materialized``: rows of joined relations materialized as
      Python objects (the quantity out-of-core execution must keep at 0).
    """

    name: ClassVar[str]
    #: Cube execution runs inside an external SQL engine: the adapter never
    #: materializes the joined relation in Python, so the engine's rows
    #: budget does not apply to it.
    pushdown: ClassVar[bool] = False

    join_graph: "JoinGraph"

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.pushdown_queries = 0
        self.rows_materialized = 0

    @abstractmethod
    def execute_cube(
        self, cube: "CubeQuery", budget: "ResourceBudget | None" = None
    ) -> "CubeResult":
        """Execute a cube query, honoring ``budget`` during rollup."""

    @abstractmethod
    def estimated_cardinality(self, tables: frozenset[str]) -> int:
        """Upper bound on the joined relation's row count, computed
        *without* materializing it (budget admission consults this)."""

    def exact_cardinality(self, tables: frozenset[str]) -> int:
        """Exact joined row count; may be as expensive as materializing.

        The engine only falls back to this when the estimate alone would
        reject a query, so a pessimistic upper bound never causes a false
        budget rejection.
        """
        return self.estimated_cardinality(tables)

    def distinct_values(
        self, table: str, column: str, limit: int | None = None
    ) -> list[Value]:
        """Distinct non-missing cells of ``table.column`` in first-seen
        order, at most ``limit`` (>= 1) of them: the values fragment
        extraction indexes and the engine's literal lookup reads. Here the
        table streams them (:meth:`~repro.db.schema.Table.distinct_values`),
        so a file-backed table materialises no rows."""
        return self.database.table(table).distinct_values(column, limit)

    def fingerprint(self) -> str:
        """Content fingerprint keying the disk cube-cache tier."""
        from repro.db.diskcache import fingerprint_of

        return fingerprint_of(self.database)

    def close(self) -> None:
        """Release external resources (connections, file handles)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.database.name!r})"


def canonical_backend_name(backend: str) -> str:
    """Normalize a backend name's spelling to its :data:`BACKENDS` entry."""
    name = str(backend).strip().lower()
    if name not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise QueryError(f"unknown storage backend {backend!r} (known: {known})")
    return name


def create_adapter(backend: str, database: "Database") -> StorageAdapter:
    """Instantiate the named adapter for ``database``."""
    from repro.db.adapters.memory import ColumnarAdapter, RowAdapter
    from repro.db.adapters.sqlite import SqliteAdapter

    classes = {
        cls.name: cls for cls in (ColumnarAdapter, RowAdapter, SqliteAdapter)
    }
    return classes[canonical_backend_name(backend)](database)
