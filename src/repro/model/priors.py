"""Document-level priors Θ over query characteristics (paper Section 5.2).

Θ holds: the probability of each aggregation function, of each aggregation
column, and — independently per column — the probability that a restriction
is placed on that column. The M-step sets each component to the (smoothed)
fraction of maximum-likelihood claim queries with the property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.aggregates import AggregateFunction
from repro.db.query import SimpleAggregateQuery
from repro.db.refs import ColumnRef
from repro.fragments.fragments import FragmentCatalog


class PriorLayout:
    """Slot assignment of one document's Θ components.

    ``update_from`` preserves dictionary key order exactly, so every
    M-step instance of one document's priors shares this layout; candidate
    spaces cache their slot arrays against its identity and the E-step
    prior term becomes pure integer gathers into per-instance log tables.
    Slot ``n`` (one past the last real component) is the fallback for keys
    the priors never saw — the log tables park ``log(_MIN_PRIOR)`` (and
    the clamped log-odds) there.
    """

    __slots__ = ("fn_slot", "col_slot", "odds_slot")

    def __init__(self, priors: "Priors") -> None:
        self.fn_slot: dict[AggregateFunction, int] = {
            key: slot for slot, key in enumerate(priors.functions)
        }
        self.col_slot: dict[ColumnRef, int] = {
            key: slot for slot, key in enumerate(priors.columns)
        }
        self.odds_slot: dict[ColumnRef, int] = {
            key: slot for slot, key in enumerate(priors.restrictions)
        }


@dataclass
class Priors:
    """Θ = <p_f..., p_a..., p_r...> (paper Eq. 1).

    The layout-aligned log arrays the E-step gathers from
    (:meth:`log_tables`) are built lazily, once per instance.
    :meth:`update_from` returns a *new* instance, so they invalidate
    naturally on every M-step.
    """

    functions: dict[AggregateFunction, float]
    columns: dict[ColumnRef, float]
    restrictions: dict[ColumnRef, float]
    _layout: "PriorLayout | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _log_tables: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def uniform(cls, catalog: FragmentCatalog) -> "Priors":
        """The EM starting point: uninformative priors."""
        n_functions = len(catalog.functions)
        functions = {
            fragment.function: 1.0 / n_functions for fragment in catalog.functions
        }
        n_columns = len(catalog.columns)
        columns = {
            fragment.column: 1.0 / n_columns for fragment in catalog.columns
        }
        predicate_columns = sorted(catalog.predicate_columns())
        n_restrictable = max(len(predicate_columns), 1)
        restrictions = {
            column: 1.0 / n_restrictable for column in predicate_columns
        }
        return cls(functions, columns, restrictions)

    def update_from(
        self,
        ml_queries: list[SimpleAggregateQuery],
        smoothing: float = 0.5,
    ) -> "Priors":
        """New priors from the maximum-likelihood query of each claim.

        Laplace smoothing keeps every component strictly positive so the
        E-step never zeroes out unseen characteristics.
        """
        n = len(ml_queries)
        function_counts = {function: 0 for function in self.functions}
        column_counts = {column: 0 for column in self.columns}
        restriction_counts = {column: 0 for column in self.restrictions}
        for query in ml_queries:
            function = query.aggregate.function
            if function in function_counts:
                function_counts[function] += 1
            column = query.aggregate.column
            if column in column_counts:
                column_counts[column] += 1
            for predicate in query.all_predicates:
                if predicate.column in restriction_counts:
                    restriction_counts[predicate.column] += 1
        functions = _smooth_distribution(function_counts, n, smoothing)
        columns = _smooth_distribution(column_counts, n, smoothing)
        restrictions = {
            column: (count + smoothing) / (n + 2.0 * smoothing)
            for column, count in restriction_counts.items()
        }
        updated = Priors(functions, columns, restrictions)
        # Key sets and orders are inherited verbatim from self, so the
        # layout (and every slot array cached against it) stays valid.
        updated._layout = self._layout
        return updated

    def distance(self, other: "Priors") -> float:
        """L1 distance between parameter vectors (convergence check)."""
        total = 0.0
        for key, value in self.functions.items():
            total += abs(value - other.functions.get(key, 0.0))
        for key, value in self.columns.items():
            total += abs(value - other.columns.get(key, 0.0))
        for key, value in self.restrictions.items():
            total += abs(value - other.restrictions.get(key, 0.0))
        return total

    def function_prior(self, function: AggregateFunction) -> float:
        return self.functions.get(function, _MIN_PRIOR)

    def column_prior(self, column: ColumnRef) -> float:
        return self.columns.get(column, _MIN_PRIOR)

    def restriction_prior(self, column: ColumnRef) -> float:
        return min(
            max(self.restrictions.get(column, _MIN_PRIOR), _MIN_PRIOR),
            1.0 - _MIN_PRIOR,
        )

    # -- aligned array tables (the E-step gather path) -------------------

    def layout(self) -> PriorLayout:
        """Slot layout shared by this document's chain of M-step priors."""
        if self._layout is None:
            self._layout = PriorLayout(self)
        return self._layout

    def log_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layout-aligned ``(log p_f, log p_a, log-odds p_r)`` arrays.

        Built once per instance; the final slot of each table holds the
        out-of-vocabulary fallback.
        """
        if self._log_tables is None:
            fn_table = np.empty(len(self.functions) + 1)
            for slot, value in enumerate(self.functions.values()):
                fn_table[slot] = math.log(value)
            fn_table[-1] = math.log(_MIN_PRIOR)
            col_table = np.empty(len(self.columns) + 1)
            for slot, value in enumerate(self.columns.values()):
                col_table[slot] = math.log(value)
            col_table[-1] = math.log(_MIN_PRIOR)
            odds_table = np.empty(len(self.restrictions) + 1)
            for slot, value in enumerate(self.restrictions.values()):
                p = min(max(value, _MIN_PRIOR), 1.0 - _MIN_PRIOR)
                odds_table[slot] = math.log(p) - math.log(1.0 - p)
            odds_table[-1] = math.log(_MIN_PRIOR) - math.log(1.0 - _MIN_PRIOR)
            self._log_tables = (fn_table, col_table, odds_table)
        return self._log_tables


_MIN_PRIOR = 1e-6


def _smooth_distribution(
    counts: dict, total: int, smoothing: float
) -> dict:
    k = max(len(counts), 1)
    denominator = total + smoothing * k
    return {
        key: (count + smoothing) / denominator for key, count in counts.items()
    }
