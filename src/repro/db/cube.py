"""``GROUP BY CUBE`` with the paper's ``InOrDefault`` literal collapsing.

One cube query computes aggregates for *every* combination of restrictions
on its dimension columns, which lets a single execution answer many query
candidates at once (paper Section 6.2). Literals with zero marginal
probability are collapsed into a default bucket before grouping — the
``InOrDefault`` rewrite — so result sets stay small while aggregates over
*unrestricted* dimensions (the ``ALL`` cells) remain exact.

This module holds the cube's query and result types; the storage adapters
execute it (:func:`~repro.db.columnar.execute_cube_columnar` in memory,
:mod:`repro.db.adapters.sqlbase` in SQL).
"""

from __future__ import annotations

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


def _check_rollup_budget(budget, n_groups: int, n_dims: int) -> None:
    """Refuse rollups whose (group, mask) merge count crosses the budget."""
    if budget is not None:
        budget.check_cube(n_groups * (1 << n_dims), "cube-rollup")
