"""``GROUP BY CUBE`` with the paper's ``InOrDefault`` literal collapsing.

One cube query computes aggregates for *every* combination of restrictions
on its dimension columns, which lets a single execution answer many query
candidates at once (paper Section 6.2). Literals with zero marginal
probability are collapsed into a default bucket before grouping — the
``InOrDefault`` rewrite — so result sets stay small while aggregates over
*unrestricted* dimensions (the ``ALL`` cells) remain exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.db.aggregates import AggregateFunction
from repro.db.columnar import ColumnarRelation, execute_cube_columnar
from repro.db.joins import JoinGraph, Relation
from repro.db.query import AggregateSpec, ColumnRef
from repro.db.schema import Database
from repro.db.values import (
    DEFAULT_LITERAL,
    Value,
    coerce_number,
    is_missing,
    normalize_string,
)
from repro.errors import QueryError


class _AllMarker:
    """Key component meaning "no restriction on this dimension"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<ALL>"

    def __reduce__(self):
        # Cell keys cross process/disk boundaries (parallel workers, the
        # disk cube cache); unpickling must yield THE singleton so identity
        # comparisons and dict lookups keep working.
        return (_restore_all, ())


def _restore_all() -> "_AllMarker":
    return ALL


#: Singleton ALL marker used in cube cell keys.
ALL = _AllMarker()

#: Hard limit on cube dimensionality; rollup cost is O(2^D) per group.
MAX_CUBE_DIMENSIONS = 10


@dataclass(frozen=True)
class CubeQuery:
    """A cube over ``dimensions`` computing several basis aggregates.

    ``literals`` maps each dimension to the normalized literals of interest;
    all other values (including NULL) collapse into the default bucket.
    Only non-ratio aggregates are allowed: ratio functions are served from
    count cells by the engine.
    """

    tables: frozenset[str]
    dimensions: tuple[ColumnRef, ...]
    literals: tuple[tuple[ColumnRef, frozenset[str]], ...]
    aggregates: tuple[AggregateSpec, ...]

    def __post_init__(self) -> None:
        if len(self.dimensions) > MAX_CUBE_DIMENSIONS:
            raise QueryError(
                f"cube with {len(self.dimensions)} dimensions exceeds the "
                f"limit of {MAX_CUBE_DIMENSIONS}"
            )
        if tuple(sorted(self.dimensions)) != self.dimensions:
            raise QueryError("cube dimensions must be sorted")
        literal_dims = tuple(dim for dim, _ in self.literals)
        if literal_dims != self.dimensions:
            raise QueryError("literals must be given per dimension, in order")
        for spec in self.aggregates:
            if spec.function.is_ratio:
                raise QueryError(
                    "cube queries compute basis aggregates only; "
                    f"got {spec.function.sql_name}"
                )

    def literal_map(self) -> dict[ColumnRef, frozenset[str]]:
        return dict(self.literals)


class _Partial:
    """Mergeable per-group accumulator for all basis aggregates of a column.

    The extremes are ``(number, position)`` and ``(number, -position)``:
    among equal numbers (``0``, ``0.0``, ``-0.0``) the earliest row wins, as
    in a scan, whatever order the groups merge in.
    """

    __slots__ = ("rows", "count", "ncount", "total", "minimum", "maximum", "distinct")

    def __init__(self) -> None:
        self.rows = 0
        self.count = 0
        self.ncount = 0
        self.total = 0.0
        self.minimum: tuple[float, int] | None = None
        self.maximum: tuple[float, int] | None = None
        self.distinct: set[str] = set()

    def add(self, cell: Value, is_star: bool, position: int) -> None:
        self.rows += 1
        if is_star or is_missing(cell):
            return
        self.count += 1
        self.distinct.add(normalize_string(cell))
        number = coerce_number(cell)
        if number is not None:
            self.ncount += 1
            self.total += number
            if self.minimum is None or number < self.minimum[0]:
                self.minimum = (number, position)
            if self.maximum is None or number > self.maximum[0]:
                self.maximum = (number, -position)

    def merge(self, other: "_Partial") -> None:
        self.rows += other.rows
        self.count += other.count
        self.ncount += other.ncount
        self.total += other.total
        if other.minimum is not None:
            if self.minimum is None or other.minimum < self.minimum:
                self.minimum = other.minimum
        if other.maximum is not None:
            if self.maximum is None or other.maximum > self.maximum:
                self.maximum = other.maximum
        self.distinct |= other.distinct

    def finalize(self, spec: AggregateSpec) -> Value:
        fn = spec.function
        if fn is AggregateFunction.COUNT:
            return self.rows if spec.column.is_star else self.count
        if fn is AggregateFunction.COUNT_DISTINCT:
            return len(self.distinct)
        if self.ncount == 0:
            # No numeric cells: Sum/Avg/Min/Max are NULL.
            return None
        if fn is AggregateFunction.SUM:
            return self.total
        if fn is AggregateFunction.AVG:
            # Divide by the numeric count, matching the naive executor's
            # compute_plain (non-numeric strings are skipped, not averaged).
            return self.total / self.ncount
        if fn is AggregateFunction.MIN:
            return self.minimum[0]
        if fn is AggregateFunction.MAX:
            return self.maximum[0]
        raise QueryError(f"unsupported basis aggregate {fn}")


CellKey = tuple  # tuple of normalized literal | DEFAULT_LITERAL | ALL per dim


class CubeResult:
    """Finalized cube cells: ``{cell key: {aggregate spec: value}}``.

    Keys cover every subset of restricted dimensions (standard CUBE
    semantics); unrestricted dimensions carry the :data:`ALL` marker.
    """

    def __init__(
        self,
        query: CubeQuery,
        cells: dict[CellKey, dict[AggregateSpec, Value]],
        rows_scanned: int,
    ) -> None:
        self.query = query
        self.cells = cells
        self.rows_scanned = rows_scanned
        self._literals = query.literal_map()

    def value(
        self,
        spec: AggregateSpec,
        assignment: dict[ColumnRef, str],
    ) -> Value:
        """Value of ``spec`` for the cell restricting each assigned dimension
        to its (normalized) literal; unassigned dimensions are ALL.

        Raises :class:`QueryError` if an assigned literal was not part of
        the cube's literal set (such a lookup would silently alias into the
        default bucket).
        """
        key_parts: list[object] = []
        for dim in self.query.dimensions:
            if dim in assignment:
                literal = assignment[dim]
                if literal not in self._literals[dim]:
                    raise QueryError(
                        f"literal {literal!r} not covered by cube on {dim}"
                    )
                key_parts.append(literal)
            else:
                key_parts.append(ALL)
        cell = self.cells.get(tuple(key_parts))
        if cell is None:
            # Empty group: counts are 0, other aggregates NULL.
            if spec.function is AggregateFunction.COUNT:
                return 0
            if spec.function is AggregateFunction.COUNT_DISTINCT:
                return 0
            return None
        return cell.get(spec)

    def cells_for(self, spec: AggregateSpec) -> dict[CellKey, Value]:
        """All cells of one aggregate (used to populate the result cache)."""
        return {key: values[spec] for key, values in self.cells.items() if spec in values}


def execute_cube(
    database: Database,
    cube: CubeQuery,
    join_graph: JoinGraph | None = None,
    budget=None,
) -> CubeResult:
    """Execute a cube query against the (joined) base relation.

    ``budget`` (a :class:`repro.budget.ResourceBudget` or None) bounds the
    rollup: after grouping, the actual rollup work is
    ``n_groups * 2^n_dims`` merges, checked against ``max_cube_cells``
    before phase 2 runs — defense in depth behind the engine's predictive
    estimate, using real group counts instead of literal cardinalities.
    """
    graph = join_graph or JoinGraph(database)
    if cube.tables:
        relation = graph.relation(cube.tables)
    else:
        relation = graph.relation({database.single_table().name})
    return _cube_over_relation(relation, cube, budget)


def _check_rollup_budget(budget, n_groups: int, n_dims: int) -> None:
    """Refuse rollups whose (group, mask) merge count crosses the budget."""
    if budget is not None:
        budget.check_cube(n_groups * (1 << n_dims), "cube-rollup")


def _cube_over_relation(
    relation: Relation | ColumnarRelation, cube: CubeQuery, budget=None
) -> CubeResult:
    if isinstance(relation, ColumnarRelation):
        return execute_cube_columnar(relation, cube, budget)
    dim_indexes = [relation.column_index(dim) for dim in cube.dimensions]
    literal_sets = [set(literals) for _, literals in cube.literals]
    agg_columns: list[tuple[AggregateSpec, int | None]] = []
    for spec in cube.aggregates:
        if spec.column.is_star:
            agg_columns.append((spec, None))
        else:
            agg_columns.append((spec, relation.column_index(spec.column)))

    # Phase 1: accumulate per fully-specified group.
    groups: dict[CellKey, list[_Partial]] = {}
    for position, row in enumerate(relation.rows):
        key_parts = []
        for index, literals in zip(dim_indexes, literal_sets):
            bucket = normalize_string(row[index])
            key_parts.append(bucket if bucket in literals else DEFAULT_LITERAL)
        key = tuple(key_parts)
        partials = groups.get(key)
        if partials is None:
            partials = [_Partial() for _ in agg_columns]
            groups[key] = partials
        for partial, (spec, column_index) in zip(partials, agg_columns):
            cell = None if column_index is None else row[column_index]
            partial.add(cell, column_index is None, position)

    # Phase 2: roll up to every subset of dimensions.
    n_dims = len(cube.dimensions)
    _check_rollup_budget(budget, len(groups), n_dims)
    rolled: dict[CellKey, list[_Partial]] = {}
    masks: list[tuple[int, ...]] = []
    for size in range(n_dims + 1):
        masks.extend(combinations(range(n_dims), size))
    for key, partials in groups.items():
        for mask in masks:
            kept = set(mask)
            masked = tuple(
                key[i] if i in kept else ALL for i in range(n_dims)
            )
            existing = rolled.get(masked)
            if existing is None:
                copies = [_Partial() for _ in agg_columns]
                for copy, partial in zip(copies, partials):
                    copy.merge(partial)
                rolled[masked] = copies
            else:
                for accumulated, partial in zip(existing, partials):
                    accumulated.merge(partial)

    # Phase 3: finalize.
    cells: dict[CellKey, dict[AggregateSpec, Value]] = {}
    for key, partials in rolled.items():
        cells[key] = {
            spec: partial.finalize(spec)
            for partial, (spec, _) in zip(partials, agg_columns)
        }
    return CubeResult(cube, cells, rows_scanned=len(relation))
