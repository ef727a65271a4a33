"""In-memory adapters: the columnar cube route and the row-wise oracle.

These wrap :class:`~repro.db.joins.JoinGraph` materialization behind the
:class:`~repro.db.adapters.base.StorageAdapter` interface:
:class:`ColumnarAdapter` executes cubes
(:func:`~repro.db.columnar.execute_cube_columnar`), and :class:`RowAdapter`
executes one query at a time (:func:`~repro.db.executor.execute_query`),
the ``NAIVE`` reference oracle. The adapter layer adds accounting
(``rows_materialized``) and a predictive join-cardinality estimate used by
budget admission.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.db.adapters.base import SimpleResult, StorageAdapter
from repro.db.columnar import ExecutionBackend, execute_cube_columnar
from repro.db.executor import execute_query
from repro.db.joins import JoinGraph
from repro.db.values import Value, normalize_string
from repro.errors import QueryError

if TYPE_CHECKING:
    from repro.budget import ResourceBudget
    from repro.db.cube import CubeQuery, CubeResult
    from repro.db.query import SimpleAggregateQuery
    from repro.db.schema import Database


class InMemoryAdapter(StorageAdapter):
    """Shared base: joined relations are materialized Python objects."""

    backend: ClassVar[ExecutionBackend]

    def __init__(self, database: "Database") -> None:
        super().__init__(database)
        self.join_graph = JoinGraph(database, backend=self.backend)
        #: max rows per join-key value, memoized per (table, column).
        self._multiplicity: dict[tuple[str, str], int] = {}

    def execute_cube(
        self, cube: "CubeQuery", budget: "ResourceBudget | None" = None
    ) -> "CubeResult":
        tables = cube.tables or frozenset(
            {self.database.single_table().name}
        )
        self._relation(tables)
        relation = self.join_graph.relation(tables)
        return execute_cube_columnar(relation, cube, budget)

    # -- cardinality ---------------------------------------------------

    def estimated_cardinality(self, tables: frozenset[str]) -> int:
        """Fan-out-aware upper bound on the joined row count.

        Walks the join tree without building it: starting from the first
        table's row count, each join edge multiplies by the *maximum
        multiplicity* of the incoming table's join key (the most rows any
        single key value matches). This bounds the true join size from
        above, so budget admission sees a many-to-many blow-up before a
        single joined row exists in memory. Already-memoized relations
        answer exactly.
        """
        key = frozenset(tables)
        if self.join_graph.is_materialized(key):
            return len(self.join_graph.relation(key))
        path = self.join_graph.join_path(key)
        database = self.database
        estimate = len(database.table(path.tables[0]))
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
            if edge is None:  # pragma: no cover - join_path emits trees
                break
            pending.remove(edge)
            if edge.source_table in joined:
                new_table, new_key = edge.target_table, edge.target_column
            else:
                new_table, new_key = edge.source_table, edge.source_column
            estimate *= self._max_multiplicity(new_table, new_key)
            joined.add(new_table)
        return estimate

    def exact_cardinality(self, tables: frozenset[str]) -> int:
        """Exact count via materialization (memoized by the join graph —
        at worst the one build the engine was about to do anyway)."""
        return len(self._relation(tables))

    # -- internals -----------------------------------------------------

    def _relation(self, tables: frozenset[str]):
        fresh = not self.join_graph.is_materialized(tables)
        relation = self.join_graph.relation(tables)
        if fresh:
            self.rows_materialized += len(relation)
        return relation

    def _max_multiplicity(self, table: str, column: str) -> int:
        memo_key = (table, column)
        cached = self._multiplicity.get(memo_key)
        if cached is not None:
            return cached
        counts: dict[str, int] = {}
        for cell in self.database.table(table).column_values(column):
            if cell is None:
                continue  # NULL keys never join (matches the hash join)
            key = normalize_string(cell)
            counts[key] = counts.get(key, 0) + 1
        result = max(counts.values(), default=0)
        self._multiplicity[memo_key] = result
        return result


class ColumnarAdapter(InMemoryAdapter):
    """Dictionary-encoded, NumPy-vectorized columnar execution. The
    default backend."""

    name = "columnar"
    backend = ExecutionBackend.COLUMNAR

    def distinct_values(
        self, table: str, column: str, limit: int | None = None
    ) -> list[Value]:
        """Read off the column's dictionary (the join graph's one
        factorization, which the relation build reuses): its codes follow
        the first-seen order of the normalized cell and code 0 is exactly
        "missing", so ``cells[1:limit + 1]`` is
        :meth:`~repro.db.schema.Table.distinct_values` element for
        element."""
        position = self.database.table(table).column_index(column)
        cells = self.join_graph.encoded_table(table).dictionary(position).cells
        return cells[1:] if limit is None else cells[1 : limit + 1]


class RowAdapter(InMemoryAdapter):
    """Tuple-at-a-time execution of one query at a time — the ``NAIVE``
    reference oracle every cube route is property-tested against. It runs
    no cubes."""

    name = "row"
    backend = ExecutionBackend.ROW

    def execute_simple(self, query: "SimpleAggregateQuery") -> SimpleResult:
        """Evaluate one Simple Aggregate Query (the ``NAIVE`` route)."""
        tables = query.referenced_tables() or frozenset(
            {self.database.single_table().name}
        )
        relation = self._relation(tables)
        value = execute_query(self.database, query, self.join_graph)
        return SimpleResult(value, len(relation))

    def execute_cube(
        self, cube: "CubeQuery", budget: "ResourceBudget | None" = None
    ) -> "CubeResult":
        raise QueryError(
            "the row backend is the NAIVE oracle and runs no cubes"
        )
