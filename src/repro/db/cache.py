"""Result cache for cube cells (paper Section 6.3).

Cache entries are keyed by (table set, aggregation function, aggregation
column, cube-dimension set) — exactly the granularity the paper found to be
the best trade-off. The entry does *not* key on the literal sets: cells for
specific literals and ``ALL`` cells are independent of which *other*
literals were collapsed into the default bucket, so entries stay valid when
literal sets differ across claims or EM iterations. Each entry remembers the
literals it has cells for; a lookup that needs an uncovered literal is a
miss, and the refreshed entry merges in the new cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.cube import ZERO_ON_EMPTY, CellKey
from repro.db.query import AggregateSpec, ColumnRef
from repro.db.values import Value

CacheKey = tuple[frozenset[str], AggregateSpec, tuple[ColumnRef, ...]]


@dataclass
class CacheEntry:
    """Cells of one aggregate over one dimension set.

    The entry knows its aggregate spec so consumers (the per-query answer
    path and the cell-gather kernels alike) can resolve empty-group cells
    through one place: :meth:`lookup` applies SQL semantics for groups the
    cube never produced (counts are 0, every other aggregate is NULL).
    """

    spec: AggregateSpec
    dimensions: tuple[ColumnRef, ...]
    literals: dict[ColumnRef, set[str]]
    cells: dict[CellKey, Value]

    def empty_value(self) -> Value:
        """Value of a cell for an empty group under this entry's spec."""
        return 0 if self.spec.function in ZERO_ON_EMPTY else None

    def lookup(self, key: CellKey) -> Value:
        """Cell value for ``key`` with the empty-group default applied."""
        return self.cells.get(key, self.empty_value())

    def covers(self, literal_map: dict[ColumnRef, frozenset[str]]) -> bool:
        """True if every requested literal already has cells."""
        for dim, wanted in literal_map.items():
            if not wanted <= self.literals.get(dim, set()):
                return False
        return True

    def merge(
        self,
        literal_map: dict[ColumnRef, frozenset[str]],
        cells: dict[CellKey, Value],
    ) -> None:
        """Fold in freshly computed cells (new literals extend coverage)."""
        for dim, literals in literal_map.items():
            self.literals.setdefault(dim, set()).update(literals)
        self.cells.update(cells)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class ResultCache:
    """Cross-claim, cross-iteration cache of cube cells."""

    def __init__(self) -> None:
        self._entries: dict[CacheKey, CacheEntry] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        tables: frozenset[str],
        spec: AggregateSpec,
        dimensions: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
    ) -> CacheEntry | None:
        """Return a covering entry, or None (and count a miss)."""
        entry = self._entries.get((tables, spec, dimensions))
        if entry is not None and entry.covers(literal_map):
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        return None

    def put(
        self,
        tables: frozenset[str],
        spec: AggregateSpec,
        dimensions: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
        cells: dict[CellKey, Value],
    ) -> CacheEntry:
        """Insert or extend the entry for this key; a new entry keeps
        ``cells`` itself (a cube result's map for ``spec``) as its map."""
        key = (tables, spec, dimensions)
        entry = self._entries.get(key)
        if entry is None:
            entry = CacheEntry(
                spec,
                dimensions,
                {dim: set(literals) for dim, literals in literal_map.items()},
                cells,
            )
            self._entries[key] = entry
        else:
            entry.merge(literal_map, cells)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.stats.reset()
