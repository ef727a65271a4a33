"""Array-native evaluation of factorized candidate spaces.

Answering a query list (``QueryEngine.evaluate``) materializes a
``SimpleAggregateQuery`` object for every candidate of every claim, hashes
it through sets and dicts, and rebuilds a predicate dict plus a cell-key
tuple per query. This module answers the *factorized* candidate space
directly: the
paper's observation that "one cube query can serve the whole cross
product" extends to the answering side, because a candidate's cell key
depends only on its predicate subset, not on the (function x column x
subset) triple itself.

Python touches a *distinct cell* or a *distinct subset*, never a
candidate:

1. per (tables, dims) group the engine derives one :class:`CellView` of
   the cache entries it fetched: one ``key -> row`` index over the cells
   that exist and one row-aligned value column per basis aggregate, with a
   trailing row holding that aggregate's empty-group value;
2. :func:`answer_candidates` builds one cell key per distinct predicate
   subset of a claim (``SpaceEncoding.cell_keys``), resolves each to a row
   with one ``index.get`` — shared by every aggregate — and fills the
   claim's candidates by fancy indexing;
3. ratio functions are one vectorized ``100.0 * numerator / denominator``
   over their candidates (Percentage divides by the all-``ALL`` cell,
   Conditional Probability by the condition-only cell), NULL where the
   denominator is zero or NULL.

Results live in :class:`SpaceResults`: per candidate the exact value
object, its float64 image, and a ``done`` flag — what
:meth:`EvaluationOutcome.from_value_ids` and the EM loop carry across
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.db.cube import ALL
from repro.db.values import Value

if TYPE_CHECKING:  # CandidateSpace is duck-typed to keep db free of model
    from repro.db.cache import CacheEntry
    from repro.db.query import AggregateSpec, ColumnRef


#: Candidate "function kinds" shared with the space encoding: how a
#: candidate's value derives from its basis-aggregate cells.
KIND_PLAIN = 0  # the basis cell itself
KIND_PERCENTAGE = 1  # basis count / all-ALL count
KIND_CONDITIONAL = 2  # basis count / condition-only count


def distinct_ids(ids: Any) -> Any:
    """Sorted distinct values of an array of small non-negative ints, in
    one counting pass (``np.unique`` would sort every candidate)."""
    return np.flatnonzero(np.bincount(ids))


class SpaceResults:
    """Evaluation results aligned with one candidate space.

    ``values[i]`` is candidate ``i``'s result exactly as the cube produced
    it (``int``, ``float`` or None), ``numbers[i]`` the same as float64
    (NaN for NULL) for vectorized comparison, and ``done[i]`` whether the
    candidate has been evaluated at all. Instances persist across EM
    iterations; the engine fills newly scoped candidates in place.
    """

    __slots__ = ("values", "numbers", "done")

    def __init__(self, n_candidates: int) -> None:
        self.values = np.empty(n_candidates, dtype=object)  # all None
        self.numbers = np.full(n_candidates, np.nan)
        self.done = np.zeros(n_candidates, dtype=bool)

    @classmethod
    def for_space(cls, space) -> "SpaceResults":
        return cls(len(space))

    def __len__(self) -> int:
        return len(self.done)

    def evaluated_mask(self) -> Any:
        """Boolean array: which candidates have a result."""
        return self.done

    def any_evaluated(self) -> bool:
        return bool(self.done.any())

    def has_value_at(self, position: int) -> bool:
        return bool(self.done[position])

    def value_at(self, position: int) -> Value:
        """Result of candidate ``position`` (None when not evaluated)."""
        return self.values[position]

    def set_value(self, position: int, value: Value) -> None:
        self.values[position] = value
        is_number = isinstance(value, (int, float))
        self.numbers[position] = value if is_number else np.nan
        self.done[position] = True


@dataclass
class SpaceEvalRequest:
    """One claim's space plus the candidates to evaluate this round.

    ``mask`` selects candidates (bool per candidate); ``results`` is
    filled in place so carried instances accumulate across EM iterations.
    """

    space: Any  # CandidateSpace (duck-typed; see module docstring)
    mask: Any  # bool array
    results: SpaceResults


class CellView:
    """Row-aligned view of one (tables, dims) group's cache entries.

    Derived per ``evaluate_spaces`` call and dropped with it: the cache,
    the disk tier and scrub keep ``CacheEntry.cells`` as the one
    stored representation.
    """

    __slots__ = ("index", "spec_row", "values", "numbers")

    def __init__(self, entries: "dict[AggregateSpec, CacheEntry]") -> None:
        keys = dict.fromkeys(
            chain.from_iterable(entry.cells for entry in entries.values())
        )
        #: cell key -> row, over the cells that exist in any entry
        self.index = dict(zip(keys, range(len(keys))))
        #: basis aggregate -> row of ``values`` / ``numbers``
        self.spec_row = {spec: row for row, spec in enumerate(entries)}
        n_cells = len(keys)
        #: (aggregates x cells + 1); the last column is the empty group
        self.values = np.empty((len(entries), n_cells + 1), dtype=object)
        for row, entry in enumerate(entries.values()):
            empty = entry.empty_value()
            self.values[row, :n_cells] = list(
                map(entry.cells.get, keys, repeat(empty))
            )
            self.values[row, n_cells] = empty
        self.numbers = self.values.astype(np.float64)  # None -> NaN

    def rows_of(self, keys: list[tuple]) -> np.ndarray:
        """Row of each cell key (the empty-group row when it has no cell)."""
        return np.fromiter(
            map(self.index.get, keys, repeat(len(self.index))),
            dtype=np.intp,
            count=len(keys),
        )


def answer_candidates(
    results: SpaceResults,
    space,
    positions: Any,
    dims: "tuple[ColumnRef, ...]",
    view: CellView,
    budget=None,
) -> None:
    """Answer every candidate at ``positions`` from cached cube cells.

    ``positions`` index into ``space``; all of them share one base
    relation and one covering dimension set, whose cells are in ``view``.
    Fills ``results`` in place. ``budget`` (optional
    :class:`repro.budget.ResourceBudget`) re-checks the candidate limit
    for callers that gather without going through
    ``QueryEngine.evaluate_spaces`` (which already bounds the batch).
    """
    if budget is not None:
        budget.check_candidates(len(positions), "gather")
    enc = space.encoding()
    # One cell lookup per distinct subset, shared by all aggregates.
    subset_ids = space.subset_index[positions]
    used = distinct_ids(subset_ids)
    subset_rows = np.zeros(len(enc.subset_codes), dtype=np.intp)
    subset_rows[used] = view.rows_of(enc.cell_keys(used, dims))
    cell_rows = subset_rows[subset_ids]
    spec_rows = np.fromiter(
        (view.spec_row.get(spec, -1) for spec in enc.basis_specs),
        dtype=np.intp,
        count=len(enc.basis_specs),
    )[enc.basis_spec_id[positions]]
    values = view.values[spec_rows, cell_rows]
    numbers = view.numbers[spec_rows, cell_rows]

    ratio = np.flatnonzero(enc.fn_kind[space.fn_index[positions]] != KIND_PLAIN)
    if len(ratio):
        # Denominator row per condition pair; Percentage candidates carry
        # pair id -1, which indexes the all-ALL row appended last.
        denominator_rows = view.rows_of(
            enc.cond_keys(dims) + [(ALL,) * len(dims)]
        )
        numerator = numbers[ratio]
        denominator = view.numbers[
            spec_rows[ratio],
            denominator_rows[enc.cond_pair_id[positions[ratio]]],
        ]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            quotient = 100.0 * numerator / denominator
        # Basis cells of ratio functions are counts, so NaN means NULL.
        undefined = (
            np.isnan(numerator) | np.isnan(denominator) | (denominator == 0)
        )
        quotient[undefined] = np.nan
        quotient_values = quotient.astype(object)
        quotient_values[undefined] = None
        values[ratio] = quotient_values
        numbers[ratio] = quotient

    results.values[positions] = values
    results.numbers[positions] = numbers
    results.done[positions] = True
