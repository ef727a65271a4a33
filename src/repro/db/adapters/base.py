"""The storage-adapter abstraction behind the query engine.

A :class:`StorageAdapter` owns everything physical about one database:
how relations are stored, how joined relations are (or are not)
materialized, and how cube/group-by execution runs. The
:class:`~repro.db.engine.QueryEngine` holds exactly one adapter and speaks
to it in canonical terms — :class:`~repro.db.cube.CubeQuery` in,
:class:`~repro.db.cube.CubeResult` (``(key, Value)`` cells) out — so every
layer above the adapter (result cache, disk cube cache, audit oracle, trust
ladder) is storage-agnostic. The ``row`` adapter is the exception: it is the
``NAIVE`` oracle, runs no cubes, and answers one
:class:`~repro.db.query.SimpleAggregateQuery` at a time instead.

Adapters register themselves by name (``columnar``, ``row``, ``sqlite``,
``duckdb``); registry names are the engine's public backend surface
(``ExecutionBackend`` is only the in-memory ``JoinGraph`` switch). An
adapter may be *registered* but not *available* (DuckDB is an optional
extra); creation then raises :class:`~repro.errors.MissingDependencyError`
with an install hint instead of an ImportError at import time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, NamedTuple

from repro.db.values import Value
from repro.errors import MissingDependencyError, QueryError

if TYPE_CHECKING:
    from repro.budget import ResourceBudget
    from repro.db.cube import CubeQuery, CubeResult
    from repro.db.joins import JoinGraph
    from repro.db.schema import Database


class SimpleResult(NamedTuple):
    """One ``NAIVE`` answer plus the rows the row adapter scanned."""

    value: Value
    rows_scanned: int


@dataclass(frozen=True)
class AdapterCapabilities:
    """What the engine (and the resource budget) may assume of an adapter.

    ``pushdown``: cube and predicate execution run inside an external SQL
    engine; the adapter never materializes the joined relation in Python.
    ``pagination``: large result spaces are fetched in keyset/cursor pages,
    so a budget can stop an oversized result mid-stream instead of after
    materialization.
    ``estimates_cardinality``: :meth:`StorageAdapter.estimated_cardinality`
    is cheap and does not materialize the join (in-memory adapters derive a
    fan-out upper bound from key multiplicities; SQL adapters push down a
    ``COUNT(*)``).
    """

    pushdown: bool = False
    pagination: bool = False
    estimates_cardinality: bool = False


class StorageAdapter(ABC):
    """Owns relation storage and execution for one database.

    Subclasses set ``name`` (the registry key and ``--backend`` value) and
    ``capabilities``, and expose a ``join_graph`` for schema-level
    join-path questions. The two mutable counters are mirrored into
    :class:`~repro.db.engine.EngineStats` by the engine after every call:

    - ``pushdown_queries``: statements executed inside an external engine;
    - ``rows_materialized``: rows of joined relations materialized as
      Python objects (the quantity out-of-core execution must keep at 0).
    """

    name: ClassVar[str]
    capabilities: ClassVar[AdapterCapabilities] = AdapterCapabilities()

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

    def fingerprint(self) -> str:
        """Content fingerprint keying the disk cube-cache tier."""
        from repro.db.diskcache import fingerprint_of

        return fingerprint_of(self.database)

    def close(self) -> None:
        """Release external resources (connections, file handles)."""

    @classmethod
    def available(cls) -> bool:
        """Whether this adapter can be constructed in this environment."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.database.name!r})"


#: Registered adapters in registration (= preference/display) order.
_REGISTRY: dict[str, type[StorageAdapter]] = {}


def register_adapter(cls: type[StorageAdapter]) -> type[StorageAdapter]:
    """Class decorator: expose an adapter under ``cls.name``."""
    _REGISTRY[cls.name] = cls
    return cls


_BUILTIN_ORDER = ("columnar", "row", "sqlite", "duckdb")


def adapter_names() -> list[str]:
    """All registered backend names (including optional, possibly
    unavailable extras such as ``duckdb``).

    The built-ins come first in a fixed order (registration order depends
    on which module imported the package first); third-party adapters
    follow alphabetically.
    """
    _ensure_builtin()
    extras = sorted(name for name in _REGISTRY if name not in _BUILTIN_ORDER)
    return [name for name in _BUILTIN_ORDER if name in _REGISTRY] + extras


def canonical_backend_name(backend: str) -> str:
    """Normalize a backend name's spelling to its registry name."""
    _ensure_builtin()
    name = str(backend).strip().lower()
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise QueryError(f"unknown storage backend {backend!r} (known: {known})")
    return name


def adapter_class(backend: str) -> type[StorageAdapter]:
    """Resolve a backend name to its adapter class."""
    return _REGISTRY[canonical_backend_name(backend)]


def create_adapter(backend: str, database: "Database") -> StorageAdapter:
    """Instantiate the named adapter for ``database``.

    Raises :class:`~repro.errors.MissingDependencyError` for registered
    adapters whose optional dependency is absent.
    """
    cls = adapter_class(backend)
    if not cls.available():
        raise MissingDependencyError(
            f"storage backend {cls.name!r} requires an optional dependency "
            f"that is not installed (hint: pip install {cls.name})"
        )
    return cls(database)


def _ensure_builtin() -> None:
    """Import the built-in adapter modules so they self-register."""
    if "columnar" not in _REGISTRY:  # pragma: no branch - idempotent
        from repro.db.adapters import duckdb, memory, sqlite  # noqa: F401
