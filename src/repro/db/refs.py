"""Column references shared by predicates, queries, and relations."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError


@dataclass(frozen=True, order=True)
class ColumnRef:
    """A ``table.column`` reference.

    ``table`` may be empty for the table-less ``*`` used by ``Count(*)`` on
    single-table databases; multi-table databases use per-table stars
    (``ColumnRef("t", "*")``).
    """

    table: str
    column: str

    def __post_init__(self) -> None:
        if not self.column:
            raise QueryError("column reference must name a column")
        # References key every cube, cache and probability table: hash once.
        object.__setattr__(self, "_hash", hash((self.table, self.column)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes are salted per
        # process, so a pickled hash would be stale in another one.
        return (ColumnRef, (self.table, self.column))

    @property
    def is_star(self) -> bool:
        return self.column == "*"

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


#: The table-less "all columns" reference used as a Count argument.
STAR = ColumnRef("", "*")
