"""The Simple Aggregate Query model (paper Definition 2).

A Simple Aggregate Query applies one aggregation function to one column (or
``*``) over the equi-join of the tables its columns live in, restricted by a
conjunction of unary equality predicates. For Conditional Probability, the
*condition* predicate is kept separate from the event predicates (footnote 1
of the paper: the first predicate is the condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.aggregates import AggregateFunction
from repro.db.predicates import Predicate, canonical_predicates
from repro.db.refs import STAR, ColumnRef
from repro.errors import QueryError

__all__ = ["AggregateSpec", "ColumnRef", "STAR", "SimpleAggregateQuery"]


@dataclass(frozen=True)
class AggregateSpec:
    """An aggregation function applied to a column (or ``*``)."""

    function: AggregateFunction
    column: ColumnRef = STAR

    def __post_init__(self) -> None:
        if self.column.is_star and self.function not in (
            AggregateFunction.COUNT,
            AggregateFunction.PERCENTAGE,
            AggregateFunction.CONDITIONAL_PROBABILITY,
        ):
            raise QueryError(f"{self.function.sql_name} requires a real column")
        object.__setattr__(self, "_hash", hash((self.function, self.column)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle-safe like ColumnRef: the hash is recomputed on load.
        return (AggregateSpec, (self.function, self.column))

    def __str__(self) -> str:
        return f"{self.function.sql_name}({self.column})"


@dataclass(frozen=True)
class SimpleAggregateQuery:
    """One aggregate, one optional condition, and event predicates.

    Instances are immutable, hashable, and canonical (predicates sorted),
    so they can serve as dictionary keys in probability tables and result
    caches.
    """

    aggregate: AggregateSpec
    predicates: tuple[Predicate, ...] = ()
    condition: Predicate | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "predicates", canonical_predicates(tuple(self.predicates))
        )
        is_conditional = (
            self.aggregate.function is AggregateFunction.CONDITIONAL_PROBABILITY
        )
        if is_conditional and self.condition is None:
            raise QueryError("ConditionalProbability requires a condition predicate")
        if not is_conditional and self.condition is not None:
            raise QueryError(
                f"{self.aggregate.function.sql_name} does not take a condition"
            )
        if self.condition is not None:
            event_columns = {predicate.column for predicate in self.predicates}
            if self.condition.column in event_columns:
                raise QueryError("condition column also appears in event predicates")
        # Queries serve as keys in large probability/result tables; caching
        # the hash removes the dominant cost of those lookups.
        object.__setattr__(
            self, "_hash", hash((self.aggregate, self.predicates, self.condition))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle-safe like ColumnRef: the hash is recomputed on load.
        return (
            SimpleAggregateQuery,
            (self.aggregate, self.predicates, self.condition),
        )

    @property
    def all_predicates(self) -> tuple[Predicate, ...]:
        """Condition (if any) followed by event predicates."""
        if self.condition is None:
            return self.predicates
        return (self.condition,) + self.predicates

    @property
    def predicate_columns(self) -> frozenset[ColumnRef]:
        return frozenset(predicate.column for predicate in self.all_predicates)

    def referenced_tables(self) -> frozenset[str]:
        """Tables named by the aggregate column and all predicates."""
        tables = {
            predicate.column.table
            for predicate in self.all_predicates
            if predicate.column.table
        }
        if self.aggregate.column.table:
            tables.add(self.aggregate.column.table)
        return frozenset(tables)

    def with_predicates(
        self, predicates: tuple[Predicate, ...]
    ) -> "SimpleAggregateQuery":
        return SimpleAggregateQuery(self.aggregate, predicates, self.condition)

    def __str__(self) -> str:
        from repro.db.sql import render_sql

        return render_sql(self)

