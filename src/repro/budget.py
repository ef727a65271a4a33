"""Resource budgets: the space limits that drive the degradation ladder.

A wide cross product, a million-group cube, or a huge candidate space
could exhaust a worker's memory. A :class:`ResourceBudget` carries three
space limits:

- ``max_rows`` — rows a single materialized relation (join result) may
  hold before the engine executes a query over it;
- ``max_cube_cells`` — an upper bound on rolled-up cube cells, estimated
  *before* ``execute_cube`` from per-dimension literal cardinalities;
- ``max_candidates`` — candidate (query, claim) pairs a claim's candidate
  space may enumerate.

Space checks are predictive where possible: :func:`estimate_cube_cells`
bounds the rolled-up result of a cube without touching a row, so the
engine can refuse to build an intractable cube entirely. Exceeding any
limit raises :class:`~repro.errors.BudgetExceeded`, which the checker
converts into its reduced-scope -> no-execution degradation ladder
(budget-degraded verdicts are never memoized). The limits count work,
not time, so the same input under the same budget degrades the same way
on every run.

A budget is shared by reference: the checker installs one budget on the
engine for the duration of an inference attempt, so nested consumers
count against one set of limits.
"""

from __future__ import annotations

from repro.errors import BudgetExceeded


def estimate_cube_cells(
    dimensions: tuple[str, ...] | list[str],
    literal_map: dict[str, object],
    estimated_rows: int | None = None,
) -> int:
    """Upper-bound the rolled-up cell count of a cube before executing it.

    Each dimension of a rolled-up cube cell takes one of ``|literals| + 2``
    values: a distinct literal, ``DEFAULT_LITERAL`` (the collapsed
    complement), or ``ALL`` (rolled up). The product over dimensions is
    therefore a true upper bound on the number of cells ``execute_cube``
    can produce after rollup — computable from the literal map alone,
    before any row is touched.

    ``estimated_rows``, when given, is an upper bound on the base
    relation's cardinality (storage adapters derive it join-fan-out-aware
    without materializing; see ``StorageAdapter.estimated_cardinality``).
    It tightens the bound: at most ``min(prod(|literals_d| + 1), rows)``
    base groups can be non-empty, and each contributes at most ``2^d``
    rolled cells — so a cube over a tiny relation is admitted even when
    its literal-product bound alone would trip the budget.
    """
    cells = 1
    for dim in dimensions:
        literals = literal_map.get(dim) or ()
        cells *= len(literals) + 2
    if estimated_rows is not None:
        groups = 1
        for dim in dimensions:
            literals = literal_map.get(dim) or ()
            groups *= len(literals) + 1
        rolled = min(groups, max(estimated_rows, 0)) * (1 << len(dimensions))
        cells = min(cells, rolled)
    return cells


class ResourceBudget:
    """Space limits checked cooperatively at stage boundaries.

    Any limit may be ``None`` (unlimited); a budget with no limits at all
    is valid and checks are no-ops.
    """

    __slots__ = ("max_rows", "max_cube_cells", "max_candidates")

    def __init__(
        self,
        max_rows: int | None = None,
        max_cube_cells: int | None = None,
        max_candidates: int | None = None,
    ) -> None:
        for name, value in (
            ("max_rows", max_rows),
            ("max_cube_cells", max_cube_cells),
            ("max_candidates", max_candidates),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        self.max_rows = max_rows
        self.max_cube_cells = max_cube_cells
        self.max_candidates = max_candidates

    def check_rows(self, n_rows: int, stage: str) -> None:
        """Refuse to execute over a relation larger than ``max_rows``."""
        if self.max_rows is not None and n_rows > self.max_rows:
            raise BudgetExceeded("rows", stage, self.max_rows, n_rows)

    def check_cube(self, estimated_cells: int, stage: str) -> None:
        """Refuse to build a cube whose estimate exceeds ``max_cube_cells``."""
        if (
            self.max_cube_cells is not None
            and estimated_cells > self.max_cube_cells
        ):
            raise BudgetExceeded(
                "cube_cells", stage, self.max_cube_cells, estimated_cells
            )

    def check_candidates(self, n_candidates: int, stage: str) -> None:
        """Refuse to enumerate a candidate space over ``max_candidates``."""
        if (
            self.max_candidates is not None
            and n_candidates > self.max_candidates
        ):
            raise BudgetExceeded(
                "candidates", stage, self.max_candidates, n_candidates
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResourceBudget(max_rows={self.max_rows}, "
            f"max_cube_cells={self.max_cube_cells}, "
            f"max_candidates={self.max_candidates})"
        )
