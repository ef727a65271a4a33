"""Unary equality predicates (the only predicate form in claim queries)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.refs import ColumnRef
from repro.db.values import Value, normalize_string, values_equal
from repro.errors import QueryError


@dataclass(frozen=True)
class Predicate:
    """An equality predicate ``column = value`` (paper Definition 2)."""

    column: ColumnRef
    value: Value
    #: Canonical value form used for grouping and cache keys; derived from
    #: ``value`` once, so it takes no part in equality, hashing or repr.
    normalized_value: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.column.is_star:
            raise QueryError("predicates cannot restrict '*'")
        if self.value is None:
            raise QueryError("predicates cannot compare against NULL")
        object.__setattr__(
            self, "normalized_value", normalize_string(self.value)
        )

    def __getstate__(self) -> dict:
        # Pickles carry only the declared values, as they always have.
        return {"column": self.column, "value": self.value}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__dict__["normalized_value"] = normalize_string(self.value)

    def matches(self, cell: Value) -> bool:
        return values_equal(cell, self.value)

    def sort_key(self) -> tuple[str, str, str]:
        return (self.column.table, self.column.column, self.normalized_value)

    def __str__(self) -> str:
        return f"{self.column} = {self.value!r}"


def canonical_predicates(predicates: tuple[Predicate, ...]) -> tuple[Predicate, ...]:
    """Sort predicates into canonical order and reject duplicate columns.

    The paper's query model places at most one restriction per column
    (Section 5.3 models a query by its value ``Vq(i)`` per column ``i``).
    """
    ordered = tuple(sorted(predicates, key=Predicate.sort_key))
    columns = [predicate.column for predicate in ordered]
    if len(set(columns)) != len(columns):
        raise QueryError("a query may restrict each column at most once")
    return ordered
