"""``GROUP BY CUBE`` with the paper's ``InOrDefault`` literal collapsing.

One cube query computes aggregates for *every* combination of restrictions
on its dimension columns, which lets a single execution answer many query
candidates at once (paper Section 6.2). Literals with zero marginal
probability are collapsed into a default bucket before grouping — the
``InOrDefault`` rewrite — so result sets stay small while aggregates over
*unrestricted* dimensions (the ``ALL`` cells) remain exact.

This module holds the cube's query and result types and the one finalizer
both storage adapters end in (:func:`~repro.db.columnar.execute_cube_columnar`
in memory, :mod:`repro.db.adapters.sqlbase` in SQL): each computes per-cell
partials, and :func:`finalize_cells` turns them into one aggregate's
``{cell key: value}`` map at a time, the form the result cache stores.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.db.aggregates import AggregateFunction
from repro.db.query import AggregateSpec, ColumnRef
from repro.db.values import Value
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


CellKey = tuple  # tuple of normalized literal | DEFAULT_LITERAL | ALL per dim


#: Aggregates whose empty-group cells are 0 rather than NULL.
ZERO_ON_EMPTY = (AggregateFunction.COUNT, AggregateFunction.COUNT_DISTINCT)

#: The per-cell partials a basis aggregate of a real column is finalized
#: from: non-missing cells, distinct non-missing cells, numeric cells, and
#: the sum, minimum and maximum of the numeric cells.
PARTIALS_BY_FN = {
    AggregateFunction.COUNT: ("count",),
    AggregateFunction.COUNT_DISTINCT: ("distinct",),
    AggregateFunction.SUM: ("ncount", "total"),
    AggregateFunction.AVG: ("ncount", "total"),
    AggregateFunction.MIN: ("ncount", "minimum"),
    AggregateFunction.MAX: ("ncount", "maximum"),
}


def finalize_cells(
    spec: AggregateSpec,
    keys: Sequence[CellKey],
    rows: Sequence[int],
    partial: Callable[[str], Sequence],
) -> dict[CellKey, Value]:
    """The cells of ``spec`` with the executor's NULL rules: SUM, AVG, MIN
    and MAX of a cell without numeric cells are NULL, and AVG divides by
    the numeric count.

    ``rows`` holds each cell's row count and ``partial(name)`` one
    :data:`PARTIALS_BY_FN` partial of the spec's column, both aligned with
    ``keys``. Values are taken as the executor computed them, never
    coerced.
    """
    fn = spec.function
    if spec.column.is_star:
        values = rows  # Count(*): the only star basis aggregate
    elif fn in ZERO_ON_EMPTY:
        values = partial(PARTIALS_BY_FN[fn][0])  # "count" or "distinct"
    elif fn is AggregateFunction.AVG:
        values = [
            total / n if n else None
            for n, total in zip(partial("ncount"), partial("total"))
        ]
    else:
        values = [
            value if n else None
            for n, value in zip(partial("ncount"), partial(PARTIALS_BY_FN[fn][1]))
        ]
    return dict(zip(keys, values))


class CubeResult:
    """Finalized cube cells, per aggregate: ``{spec: {cell key: value}}``.

    Keys cover every subset of restricted dimensions (standard CUBE
    semantics); unrestricted dimensions carry the :data:`ALL` marker.
    Every aggregate has a cell for the same keys: the non-empty groups.
    """

    def __init__(
        self,
        query: CubeQuery,
        cells: dict[AggregateSpec, dict[CellKey, Value]],
        rows_scanned: int,
    ) -> None:
        self.query = query
        self._cells = cells
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
        # Empty group: counts are 0, other aggregates NULL.
        empty = 0 if spec.function in ZERO_ON_EMPTY else None
        return self._cells[spec].get(tuple(key_parts), empty)

    def cells_for(self, spec: AggregateSpec) -> dict[CellKey, Value]:
        """All cells of one aggregate (what the result cache stores)."""
        return self._cells[spec]


def _check_rollup_budget(budget, n_groups: int, n_dims: int) -> None:
    """Refuse rollups whose (group, mask) merge count crosses the budget."""
    if budget is not None:
        budget.check_cube(n_groups * (1 << n_dims), "cube-rollup")
