"""Batch query engine with merging and caching (paper Section 6).

Two execution modes, each on its own backends:

- ``NAIVE``: every candidate query is executed separately, by the
  row-wise executor (:mod:`repro.db.executor`). It runs on the ``row``
  backend only and is the reference oracle the cube routes are held to.
- ``MERGED_CACHED``: candidates sharing a base relation are answered from
  shared cube queries (``InOrDefault`` + ``GROUP BY CUBE``), and cube cells
  persist in a :class:`~repro.db.cache.ResultCache` across claims and EM
  iterations. It runs on every backend except ``row``.
"""

from __future__ import annotations

import enum
import os
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from repro import faults
from repro.budget import estimate_cube_cells
from repro.db.adapters.base import (
    StorageAdapter,
    canonical_backend_name,
    create_adapter,
)
from repro.db.aggregates import AggregateFunction, ratio_value
from repro.db.cache import CacheEntry, ResultCache
from repro.db.cube import ALL, CubeQuery
from repro.db.gather import (
    CellView,
    SpaceEvalRequest,
    SpaceResults,
    answer_candidates,
    distinct_ids,
)
from repro.db.predicates import Predicate
from repro.db.query import AggregateSpec, ColumnRef, SimpleAggregateQuery
from repro.db.schema import Database
from repro.db.values import Value
from repro.errors import BudgetExceeded, InjectedFault, QueryError

if TYPE_CHECKING:  # runtime import would be circular via repro.db.cache users
    from repro.budget import ResourceBudget
    from repro.deadline import Deadline


class ExecutionMode(enum.Enum):
    """How batches of candidate queries are evaluated."""

    NAIVE = "naive"
    MERGED_CACHED = "merged_cached"


#: The backend ``NAIVE`` runs on, and the only one that runs no cubes.
ORACLE_BACKEND = "row"


@dataclass(frozen=True)
class EngineConfig:
    """Everything needed to construct a :class:`QueryEngine`.

    One frozen value threads from :class:`~repro.core.config.AggCheckerConfig`
    through the CLI and service layer down to engine construction. Derive
    variants with :func:`dataclasses.replace`. Three (mode, backend) pairs
    are valid: ``NAIVE`` × ``row`` (the oracle) and ``MERGED_CACHED`` ×
    ``columnar`` or ``sqlite``, so the backend alone names the engine.
    """

    #: Batch evaluation strategy: the oracle or the production route.
    #: ``None`` takes the backend's one mode; a mode the backend does not
    #: run raises :class:`~repro.errors.QueryError`.
    mode: ExecutionMode | None = None
    #: Storage-adapter name, one of
    #: :data:`~repro.db.adapters.BACKENDS` (``columnar``, ``row``,
    #: ``sqlite``), normalized to that spelling.
    backend: str = "columnar"
    #: Directory for the persistent cube-cell disk cache (None disables
    #: the disk tier). The engine constructs its own
    #: :class:`~repro.db.diskcache.DiskCubeCache` over this directory;
    #: sharing the directory between engines/processes is safe (entries
    #: are content-fingerprint keyed).
    cache_dir: "str | os.PathLike | None" = None
    #: Skip the disk tier for databases smaller than this many total rows
    #: (None = always use it when ``cache_dir`` is set).
    disk_cache_min_rows: int | None = None

    def __post_init__(self) -> None:
        backend = canonical_backend_name(self.backend)
        object.__setattr__(self, "backend", backend)
        mode = (
            ExecutionMode.NAIVE
            if backend == ORACLE_BACKEND
            else ExecutionMode.MERGED_CACHED
        )
        if self.mode is None:
            object.__setattr__(self, "mode", mode)
        elif self.mode is not mode:
            raise QueryError(
                f"mode {self.mode.value!r} does not run on backend "
                f"{backend!r}: the oracle is EngineConfig(mode=ExecutionMode."
                f"NAIVE, backend={ORACLE_BACKEND!r}), and every other backend "
                "runs ExecutionMode.MERGED_CACHED"
            )
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", os.fspath(self.cache_dir))


@dataclass
class EngineStats:
    """Counters for the processing experiments (Table 6).

    All fields must be additive counters: :meth:`merge`, :meth:`diff`, and
    :meth:`reset` operate field-wise over ``dataclasses.fields``, so a new
    counter added here is automatically aggregated everywhere stats are
    pooled (corpus totals, per-document deltas).
    """

    #: Logical evaluation requests. ``evaluate_spaces`` (the production
    #: route) counts per candidate per claim — a query shared by two
    #: claims counts twice; materializing queries just to dedup a counter
    #: would defeat the zero-materialization path. The list reference
    #: ``evaluate`` counts distinct queries after dedup, ``evaluate_one``
    #: one per call.
    queries_requested: int = 0
    physical_queries: int = 0
    cube_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    rows_scanned: int = 0
    query_seconds: float = 0.0
    #: Candidates answered by the factorized cell-gather path (no
    #: per-candidate query objects were materialized for these).
    gathered_candidates: int = 0
    #: Corrupt disk-cache entries quarantined (recomputed on the spot).
    disk_corrupt: int = 0
    #: Times the disk tier was skipped because the database fell under
    #: ``disk_cache_min_rows`` (recomputing tiny cubes beats the disk
    #: round-trip; the decision is counted, not silent).
    disk_skipped_small: int = 0
    #: Documents whose inference fell back to a shrunken evaluation scope
    #: after the claim deadline expired (degradation-ladder rung 2).
    deadline_degraded: int = 0
    #: Documents whose inference skipped query execution entirely after
    #: even the shrunken scope missed its deadline (rung 3).
    deadline_exec_skipped: int = 0
    #: Claims reported as unverifiable because the deadline expired
    #: before inference could run at all (rung 4).
    deadline_unverifiable: int = 0
    #: Space-budget refusals in the engine: estimated cube cells, join
    #: rows, or candidate counts crossed a limit and the execution was
    #: refused *before* materializing (see :mod:`repro.budget`).
    budget_rejections: int = 0
    #: Documents whose inference fell back to a shrunken evaluation scope
    #: after a space budget was exceeded (same ladder rung 2 as deadline).
    budget_degraded: int = 0
    #: Documents whose inference skipped query execution entirely after
    #: even the shrunken scope exceeded a space budget (rung 3).
    budget_exec_skipped: int = 0
    #: Claims reported as unverifiable because a space budget was
    #: exceeded before inference could run at all (rung 4).
    budget_unverifiable: int = 0
    #: Statements the storage adapter pushed down into an external SQL
    #: engine (SQLite). 0 for in-memory adapters.
    pushdown_queries: int = 0
    #: Rows of joined relations materialized as Python objects by the
    #: storage adapter. Pushdown adapters keep this at 0 — the counter
    #: out-of-core verification must hold flat.
    rows_materialized: int = 0

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, spec.default)

    def merge(self, other: "EngineStats") -> "EngineStats":
        """Accumulate another stats object into this one, field-wise."""
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )
        return self

    def __iadd__(self, other: "EngineStats") -> "EngineStats":
        return self.merge(other)

    def copy(self) -> "EngineStats":
        return replace(self)

    def diff(self, baseline: "EngineStats") -> "EngineStats":
        """Field-wise ``self - baseline`` (e.g. per-document deltas of a
        long-lived engine's cumulative counters)."""
        return EngineStats(
            **{
                spec.name: getattr(self, spec.name) - getattr(baseline, spec.name)
                for spec in fields(self)
            }
        )

    def cache_hit_rate(self) -> float:
        """In-memory cube-cache hit rate (0.0 when nothing was looked up)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def disk_hit_rate(self) -> float:
        """Disk-tier cube-cache hit rate (0.0 when nothing was looked up)."""
        total = self.disk_hits + self.disk_misses
        return self.disk_hits / total if total else 0.0


def _basis_spec(query: SimpleAggregateQuery) -> AggregateSpec:
    """The cube-computable aggregate backing a candidate query.

    Ratio functions are derived from counts of the same column (footnote 1
    of the paper), everything else is computed directly.
    """
    spec = query.aggregate
    if spec.function.is_ratio:
        return AggregateSpec(AggregateFunction.COUNT, spec.column)
    return spec


class QueryEngine:
    """Evaluates batches of Simple Aggregate Queries against one database.

    Construction takes an :class:`EngineConfig` (``QueryEngine(db)`` or
    ``QueryEngine(db, EngineConfig(backend="sqlite"))``).
    """

    def __init__(
        self, database: Database, config: EngineConfig | None = None
    ) -> None:
        self.config = config if config is not None else EngineConfig()

        self.database = database
        self.mode = self.config.mode
        self.adapter: StorageAdapter = create_adapter(
            self.config.backend, database
        )
        #: Canonical storage-backend name; keys the disk cube-cache tier.
        self.backend = self.adapter.name
        self.join_graph = self.adapter.join_graph

        disk_cache = None
        if self.config.cache_dir is not None:
            from repro.db.diskcache import DiskCubeCache

            disk_cache = DiskCubeCache(self.config.cache_dir)
        # Tiny databases can recompute a cube faster than a disk
        # round-trip: below the row threshold the disk tier is skipped
        # outright, counted so operators can see the decision.
        skipped_small = (
            disk_cache is not None
            and self.config.disk_cache_min_rows is not None
            and database.total_rows() < self.config.disk_cache_min_rows
        )
        if skipped_small:
            disk_cache.stats.skipped_small += 1
            disk_cache = None
        self.cache = ResultCache()
        self.disk_cache = disk_cache
        self._db_fingerprint: str | None = None
        self.stats = EngineStats()
        if skipped_small:
            self.stats.disk_skipped_small += 1
        # Adapter-counter values already mirrored into EngineStats (the
        # delta-sync pattern of ``_disk_corrupt_seen``).
        self._adapter_pushdown_seen = 0
        self._adapter_materialized_seen = 0
        #: Cooperative execution budget (see :mod:`repro.deadline`): when
        #: set, checked immediately before every physical cube or query
        #: execution — the expensive, unbounded work. The checker installs
        #: it around inference and clears it in a ``finally``.
        self.deadline: "Deadline | None" = None
        #: Cooperative space budget (see :mod:`repro.budget`): when set,
        #: the engine refuses to materialize joins, cubes, or candidate
        #: spaces whose estimated size crosses a limit, raising
        #: :class:`~repro.errors.BudgetExceeded` for the checker's
        #: degradation ladder. Installed/cleared alongside ``deadline``.
        self.budget: "ResourceBudget | None" = None
        # Disk-cache corrupt counter seen at construction: the cache
        # object may be shared, so this engine mirrors only *new*
        # corruption into its own EngineStats.
        self._disk_corrupt_seen = (
            disk_cache.stats.corrupt if disk_cache is not None else 0
        )

    @property
    def database_fingerprint(self) -> str:
        """Content fingerprint of the engine's database (computed once).

        Keys the disk-cache tier: any change to the underlying data (e.g.
        an edited source CSV reloaded into a new database) yields a new
        fingerprint and therefore cold disk-cache keys — stale cube cells
        are never served. Shared (memoized) with the service layer's
        checker pool and incremental tier via
        :func:`repro.db.diskcache.fingerprint_of`.
        """
        if self._db_fingerprint is None:
            self._db_fingerprint = self.adapter.fingerprint()
        return self._db_fingerprint

    def close(self) -> None:
        """Release adapter resources (SQL connections, file handles)."""
        self.adapter.close()

    def _sync_adapter_counters(self) -> None:
        """Mirror adapter-owned counters into EngineStats (delta-wise;
        the adapter may outlive several stats resets)."""
        pushed = self.adapter.pushdown_queries
        if pushed > self._adapter_pushdown_seen:
            self.stats.pushdown_queries += pushed - self._adapter_pushdown_seen
            self._adapter_pushdown_seen = pushed
        materialized = self.adapter.rows_materialized
        if materialized > self._adapter_materialized_seen:
            self.stats.rows_materialized += (
                materialized - self._adapter_materialized_seen
            )
            self._adapter_materialized_seen = materialized

    def evaluate_one(self, query: SimpleAggregateQuery) -> Value:
        """Evaluate a single query on the engine's route: the row executor
        under ``NAIVE``, else the same cubes and cache as the candidates.

        A hand-written query may compare a column with a number
        (``WHERE price = 10``), which the executor matches by value
        (:func:`~repro.db.values.values_equal`) and a cube by literal; see
        :meth:`_by_literal`. A cube route refuses, with
        :class:`~repro.errors.QueryError`, a query over more than
        :data:`~repro.db.cube.MAX_CUBE_DIMENSIONS` predicate columns.
        """
        self.stats.queries_requested += 1
        if self.mode is ExecutionMode.NAIVE:
            return self._execute_naive(query)
        query = self._by_literal(query)
        return self._evaluate_merged([query])[query]

    def _by_literal(self, query: SimpleAggregateQuery) -> SimpleAggregateQuery:
        """``query`` with each non-string predicate value replaced by the
        one cell of its column that it equals by value, so the cube cell
        the query names holds the rows the executor would match (the
        literal ``"10"`` names no ``10.0`` cell). A value equal to cells
        of several literals (``10`` and ``10.0``) names no single cell and
        raises :class:`~repro.errors.QueryError`."""

        def by_literal(predicate: Predicate) -> Predicate:
            if isinstance(predicate.value, str):
                return predicate
            column = predicate.column
            table = column.table or self.database.single_table().name
            # One raw cell per normalized literal.
            cells = [
                cell
                for cell in self.adapter.distinct_values(table, column.column)
                if predicate.matches(cell)
            ]
            if len(cells) > 1:
                raise QueryError(
                    f"{predicate} matches {len(cells)} literals of {column} "
                    f"({', '.join(map(repr, cells))}); name one of them"
                )
            return Predicate(column, cells[0]) if cells else predicate

        if all(isinstance(p.value, str) for p in query.all_predicates):
            return query
        return SimpleAggregateQuery(
            query.aggregate,
            tuple(map(by_literal, query.predicates)),
            None if query.condition is None else by_literal(query.condition),
        )

    def evaluate(
        self, queries: Iterable[SimpleAggregateQuery]
    ) -> dict[SimpleAggregateQuery, Value]:
        """Evaluate an ad-hoc query list on the engine's route.

        The reference entry point: it decomposes a batch over the same
        ``_cover_assignment``/``_cells_for`` as :meth:`evaluate_spaces`,
        one query object at a time, and is what the tests compare the
        factorized route against. Nothing under ``src/repro`` calls it and
        no option selects it.
        """
        batch = list(dict.fromkeys(queries))
        self.stats.queries_requested += len(batch)
        if self.mode is ExecutionMode.NAIVE:
            return {query: self._execute_naive(query) for query in batch}
        return self._evaluate_merged(batch)

    # ------------------------------------------------------------------
    # Factorized space path (zero materialization)
    # ------------------------------------------------------------------

    def evaluate_space(self, space, mask=None) -> SpaceResults:
        """Answer one claim's factorized candidate space.

        ``mask`` selects candidates (bool per candidate; None = the whole
        space). No ``SimpleAggregateQuery`` objects are built on this path
        (except in NAIVE mode, the per-query reference): candidates are
        answered from cube cells by integer gather, and the returned
        :class:`~repro.db.gather.SpaceResults` carries one value per
        candidate.
        """
        results = SpaceResults.for_space(space)
        if mask is None:
            mask = np.ones(len(space), dtype=bool)
        self.evaluate_spaces([SpaceEvalRequest(space, mask, results)])
        return results

    def evaluate_spaces(self, requests: Sequence[SpaceEvalRequest]) -> None:
        """Batch-answer several candidate spaces, sharing cube work.

        The batch is decomposed exactly like :meth:`evaluate` — literals
        pooled across the whole batch, candidates grouped by base-relation
        table set, covering cube dimension sets chosen per group — so the
        physical work (cube queries, cache traffic) is identical to the
        list reference's. Each request's ``results`` is filled in place.
        """
        active: list[tuple[SpaceEvalRequest, object]] = []
        total = 0
        for request in requests:
            positions = np.flatnonzero(request.mask)
            if len(positions) == 0:
                continue
            total += len(positions)
            active.append((request, positions))
        self.stats.queries_requested += total
        if not active:
            return
        self._check_candidates_budget(total)

        if self.mode is ExecutionMode.NAIVE:
            self._evaluate_spaces_naive(active)
            return

        # Literals of interest per column: union across the whole batch
        # (paper Section 6.3 pools literals over all claims).
        literal_union: dict[ColumnRef, set[str]] = {}
        for request, positions in active:
            encoding = request.space.encoding()
            encoding.add_literals(
                request.space.subset_index[positions], literal_union
            )

        # Group candidate slices by base-relation table set.
        table_groups: dict[frozenset[str], list] = {}
        for request, positions in active:
            encoding = request.space.encoding()
            table_ids = encoding.tables_id[positions]
            for tid in distinct_ids(table_ids).tolist():
                tables = encoding.table_sets[tid]
                if not tables:
                    tables = frozenset({self.database.single_table().name})
                table_groups.setdefault(tables, []).append(
                    (request, positions[table_ids == tid], encoding)
                )

        for tables, slices in table_groups.items():
            self._evaluate_space_group(tables, slices, literal_union)

    def _evaluate_spaces_naive(self, active) -> None:
        """NAIVE-mode reference: one physical query per distinct candidate."""
        missing = object()
        memo: dict[SimpleAggregateQuery, Value] = {}
        for request, positions in active:
            results = request.results
            for position in positions.tolist():
                query = request.space.query_at(position)
                value = memo.get(query, missing)
                if value is missing:
                    value = self._execute_naive(query)
                    memo[query] = value
                results.set_value(position, value)

    def _evaluate_space_group(
        self,
        tables: frozenset[str],
        slices: list,
        literal_union: dict[ColumnRef, set[str]],
    ) -> None:
        """Answer all candidate slices sharing one base relation."""
        column_sets: set[frozenset[ColumnRef]] = set()
        for request, positions, encoding in slices:
            column_sets.update(
                encoding.column_sets_used(request.space.subset_index[positions])
            )
        assignment = self._cover_assignment(column_sets)

        dims_groups: dict[frozenset[ColumnRef], list] = {}
        for request, positions, encoding in slices:
            subset_ids = request.space.subset_index[positions]
            # Column sets in order of the first subset that uses each.
            dims_of = {
                sid: assignment[encoding.col_sets[sid]]
                for sid in encoding.col_set_id[distinct_ids(subset_ids)].tolist()
            }
            distinct = list(dict.fromkeys(dims_of.values()))
            if len(distinct) == 1:
                dims_groups.setdefault(distinct[0], []).append(
                    (request, positions, encoding)
                )
                continue
            dim_id_of = {dims: index for index, dims in enumerate(distinct)}
            set_dim = np.full(len(encoding.col_sets), -1, dtype=np.intp)
            for sid, dims in dims_of.items():
                set_dim[sid] = dim_id_of[dims]
            candidate_dim = set_dim[encoding.col_set_id[subset_ids]]
            for dims in distinct:
                dims_groups.setdefault(dims, []).append(
                    (request, positions[candidate_dim == dim_id_of[dims]], encoding)
                )

        for dims, group_slices in dims_groups.items():
            ordered_dims = tuple(sorted(dims))
            literal_map = {
                dim: frozenset(literal_union.get(dim, set()))
                for dim in ordered_dims
            }
            specs = set()
            for request, positions, encoding in group_slices:
                specs.update(
                    encoding.basis_specs[sid]
                    for sid in distinct_ids(encoding.basis_spec_id[positions]).tolist()
                )
            view = CellView(
                self._cells_for(tables, ordered_dims, literal_map, specs)
            )
            for request, positions, encoding in group_slices:
                answer_candidates(
                    request.results,
                    request.space,
                    positions,
                    ordered_dims,
                    view,
                    budget=self.budget,
                )
                self.stats.gathered_candidates += len(positions)

    # ------------------------------------------------------------------
    # Naive path
    # ------------------------------------------------------------------

    def _execute_naive(self, query: SimpleAggregateQuery) -> Value:
        if self.deadline is not None:
            self.deadline.check("query-exec")
        tables = self._query_tables(query)
        self._check_relation_budget(tables, "query-exec")
        start = time.perf_counter()
        result = self.adapter.execute_simple(query)
        self.stats.query_seconds += time.perf_counter() - start
        self.stats.physical_queries += 1
        self.stats.rows_scanned += result.rows_scanned
        self._sync_adapter_counters()
        return result.value

    # ------------------------------------------------------------------
    # Merged path
    # ------------------------------------------------------------------

    def _evaluate_merged(
        self, batch: Sequence[SimpleAggregateQuery]
    ) -> dict[SimpleAggregateQuery, Value]:
        # Literals of interest per column: union across the whole batch
        # (the paper generates cells for all literals with non-zero marginal
        # probability for *any* claim, Section 6.3).
        literal_union: dict[ColumnRef, set[str]] = {}
        for query in batch:
            for predicate in query.all_predicates:
                literal_union.setdefault(predicate.column, set()).add(
                    predicate.normalized_value
                )

        # Group queries by base relation, then choose covering dim sets.
        by_tables: dict[frozenset[str], list[SimpleAggregateQuery]] = {}
        for query in batch:
            by_tables.setdefault(self._query_tables(query), []).append(query)

        results: dict[SimpleAggregateQuery, Value] = {}
        for tables, group in by_tables.items():
            self._evaluate_group(tables, group, literal_union, results)
        return results

    def _evaluate_group(
        self,
        tables: frozenset[str],
        group: Sequence[SimpleAggregateQuery],
        literal_union: dict[ColumnRef, set[str]],
        results: dict[SimpleAggregateQuery, Value],
    ) -> None:
        assignment_of = self._cover_assignment(
            frozenset(query.predicate_columns) for query in group
        )

        queries_by_dims: dict[frozenset[ColumnRef], list[SimpleAggregateQuery]] = {}
        for query in group:
            dims = assignment_of[frozenset(query.predicate_columns)]
            queries_by_dims.setdefault(dims, []).append(query)

        for dims, queries in queries_by_dims.items():
            ordered_dims = tuple(sorted(dims))
            literal_map = {
                dim: frozenset(literal_union.get(dim, set()))
                for dim in ordered_dims
            }
            specs = {_basis_spec(query) for query in queries}
            entries = self._cells_for(tables, ordered_dims, literal_map, specs)
            for query in queries:
                results[query] = self._answer(query, ordered_dims, entries)

    def _cover_assignment(
        self, column_sets: Iterable[frozenset[ColumnRef]]
    ) -> dict[frozenset[ColumnRef], frozenset[ColumnRef]]:
        """Choose covering cube dimension sets for predicate-column sets:
        largest first, each smaller set reusing a chosen superset."""
        column_sets = sorted(
            set(column_sets),
            key=lambda s: (-len(s), sorted(str(c) for c in s)),
        )
        chosen: list[frozenset[ColumnRef]] = []
        assignment: dict[frozenset[ColumnRef], frozenset[ColumnRef]] = {}
        for column_set in column_sets:
            cover = next((c for c in chosen if column_set <= c), None)
            if cover is None:
                chosen.append(column_set)
                cover = column_set
            assignment[column_set] = cover
        return assignment

    def _cells_for(
        self,
        tables: frozenset[str],
        dims: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
        specs: set[AggregateSpec],
    ) -> dict[AggregateSpec, CacheEntry]:
        cache = self.cache
        entries: dict[AggregateSpec, CacheEntry] = {}
        missing: list[AggregateSpec] = []
        # Accumulate hit/miss *deltas*: the cache may be cleared (which
        # resets its counters) or replaced between batches, so copying its
        # own counters would clobber the cumulative engine stats.
        hits_before = cache.stats.hits
        misses_before = cache.stats.misses
        for spec in sorted(specs, key=str):
            entry = cache.get(tables, spec, dims, literal_map)
            if entry is None and self.disk_cache is not None:
                entry = self._load_from_disk(tables, spec, dims, literal_map)
            if entry is not None:
                entries[spec] = entry
            else:
                missing.append(spec)
        self.stats.cache_hits += cache.stats.hits - hits_before
        self.stats.cache_misses += cache.stats.misses - misses_before
        if missing:
            if self.deadline is not None:
                self.deadline.check("cube-exec")
            self._check_cube_budget(tables, dims, literal_map)
            self._check_relation_budget(tables, "cube-exec")
            cube = CubeQuery(
                tables=tables,
                dimensions=dims,
                literals=tuple((dim, literal_map[dim]) for dim in dims),
                aggregates=tuple(missing),
            )
            start = time.perf_counter()
            result = self.adapter.execute_cube(cube, budget=self.budget)
            self.stats.query_seconds += time.perf_counter() - start
            self.stats.cube_queries += 1
            self.stats.physical_queries += 1
            self.stats.rows_scanned += result.rows_scanned
            self._sync_adapter_counters()
            for spec in missing:
                cells = result.cells_for(spec)
                entry = cache.put(tables, spec, dims, literal_map, cells)
                entries[spec] = entry
                if self.disk_cache is not None:
                    self.disk_cache.store(
                        self.database_fingerprint,
                        self.backend,
                        tables,
                        spec,
                        dims,
                        entry.literals,
                        entry.cells,
                    )
            self._sync_disk_corrupt()
        return entries

    # ------------------------------------------------------------------
    # Resource-budget guards (see repro.budget)
    # ------------------------------------------------------------------

    def _check_candidates_budget(self, total: int) -> None:
        """Refuse candidate spaces larger than the installed budget."""
        if self.budget is None:
            return
        try:
            self.budget.check_candidates(total, "candidates")
        except BudgetExceeded:
            self.stats.budget_rejections += 1
            raise

    def _check_cube_budget(
        self,
        tables: frozenset[str],
        dims: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
    ) -> None:
        """Refuse cubes whose *estimated* rolled-up size crosses the budget.

        The estimate (product of per-dimension literal cardinalities + 2,
        see :func:`repro.budget.estimate_cube_cells`) is computed before a
        single row is touched, so an intractable cube is never built. When
        a cube-cell budget is actually installed, the adapter's predictive
        join-cardinality estimate tightens the bound (cells cannot exceed
        base groups, which cannot exceed relation rows). The
        ``budget.estimate`` fire point lets the chaos harness simulate an
        over-budget estimate without constructing a hostile database.
        """
        estimated_rows = None
        if self.budget is not None and self.budget.max_cube_cells is not None:
            estimated_rows = self.adapter.estimated_cardinality(tables)
            self._sync_adapter_counters()
        estimate = estimate_cube_cells(
            dims, literal_map, estimated_rows=estimated_rows
        )
        try:
            faults.fire(
                "budget.estimate", ",".join(sorted(tables)), estimate
            )
        except InjectedFault as fault:
            self.stats.budget_rejections += 1
            raise BudgetExceeded(
                "cube_cells", "cube-exec", 0, estimate
            ) from fault
        if self.budget is None:
            return
        try:
            self.budget.check_cube(estimate, "cube-exec")
        except BudgetExceeded:
            self.stats.budget_rejections += 1
            raise

    def _check_relation_budget(
        self, tables: frozenset[str], stage: str
    ) -> None:
        """Bound the relation backing a query or cube, predictively.

        ``max_rows`` budgets Python-side *materialization*, so the check
        consults the adapter's ``pushdown`` flag: a pushdown adapter never
        pulls the relation into Python (it streams paginated cells, bounded by
        ``check_cube`` during rollup), which is exactly what makes
        out-of-core verification work — a 10M-row SQLite file verifies
        under a tiny ``max_rows_materialized``. For in-memory adapters the
        relation *is* the materialization, so the engine first checks the
        adapter's *estimated* cardinality — a join-fan-out upper bound
        computed without materializing anything — and only when that
        pessimistic bound would reject does it pay for the exact count (at
        worst the one materialization it was about to do anyway), so an
        over-estimate never causes a false rejection and an actually
        oversized join is refused before any Python-side materialization.
        """
        if self.budget is None or self.budget.max_rows is None:
            return
        if self.adapter.pushdown:
            return
        try:
            self.budget.check_rows(
                self.adapter.estimated_cardinality(tables), stage
            )
        except BudgetExceeded:
            try:
                self.budget.check_rows(
                    self.adapter.exact_cardinality(tables), stage
                )
            except BudgetExceeded:
                self.stats.budget_rejections += 1
                raise
        finally:
            self._sync_adapter_counters()

    def _sync_disk_corrupt(self) -> None:
        """Mirror newly-quarantined disk-cache entries into EngineStats."""
        if self.disk_cache is None:
            return
        seen = self.disk_cache.stats.corrupt
        if seen > self._disk_corrupt_seen:
            self.stats.disk_corrupt += seen - self._disk_corrupt_seen
            self._disk_corrupt_seen = seen

    def _load_from_disk(
        self,
        tables: frozenset[str],
        spec: AggregateSpec,
        dims: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
    ):
        """Second-tier lookup: seed the in-memory cache from disk."""
        loaded = self.disk_cache.load(
            self.database_fingerprint,
            self.backend,
            tables,
            spec,
            dims,
            literal_map,
        )
        self._sync_disk_corrupt()
        if loaded is None:
            self.stats.disk_misses += 1
            return None
        self.stats.disk_hits += 1
        literals, cells = loaded
        return self.cache.put(
            tables,
            spec,
            dims,
            {dim: frozenset(values) for dim, values in literals.items()},
            cells,
        )

    def _answer(
        self,
        query: SimpleAggregateQuery,
        dims: tuple[ColumnRef, ...],
        entries: dict[AggregateSpec, CacheEntry],
    ) -> Value:
        entry = entries[_basis_spec(query)]
        assignment = {
            predicate.column: predicate.normalized_value
            for predicate in query.all_predicates
        }
        numerator = self._cell_value(entry, dims, assignment)
        fn = query.aggregate.function
        if not fn.is_ratio:
            return numerator
        if fn is AggregateFunction.PERCENTAGE:
            denominator = self._cell_value(entry, dims, {})
        else:  # CONDITIONAL_PROBABILITY
            assert query.condition is not None
            condition_only = {
                query.condition.column: query.condition.normalized_value
            }
            denominator = self._cell_value(entry, dims, condition_only)
        return ratio_value(numerator, denominator)

    def _cell_value(
        self,
        entry: CacheEntry,
        dims: tuple[ColumnRef, ...],
        assignment: dict[ColumnRef, str],
    ) -> Value:
        # Empty groups resolve through the entry: counts 0, others NULL.
        return entry.lookup(tuple(assignment.get(dim, ALL) for dim in dims))

    def _query_tables(self, query: SimpleAggregateQuery) -> frozenset[str]:
        tables = query.referenced_tables()
        if not tables:
            tables = frozenset({self.database.single_table().name})
        return tables
