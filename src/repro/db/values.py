"""Cell values and type coercion for the in-memory engine.

A cell is one of: ``None`` (SQL NULL), ``str``, ``int``, or ``float``.
Numeric columns may mix ``int`` and ``float``. String comparison is
case-insensitive (newspaper text rarely matches database casing), which
mirrors how the paper matches claim keywords against database literals.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

Value = None | str | int | float

#: Sentinel used by the cube operator's ``InOrDefault`` rewrite for literals
#: with zero marginal probability (paper Section 6.2). Using a dedicated
#: object keeps it distinct from every real cell value, including None.
DEFAULT_LITERAL = "\x00<other>"

#: Largest integer magnitude a float can hold. An integer cell beyond it
#: (``10**400`` in a scraped CSV) cannot enter a float accumulator, a
#: float64 array or a SQL REAL, so every tier treats it as present but
#: non-numeric rather than raising ``OverflowError`` part-way through.
_FLOAT_MAX = int(sys.float_info.max)


def is_missing(value: Value) -> bool:
    """Return True for SQL NULL or an empty/whitespace-only string."""
    if value is None:
        return True
    if isinstance(value, str):
        return not value.strip()
    return False


def is_numeric(value: Value) -> bool:
    """Return True if the value is a usable number (not NULL, not NaN)."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return not math.isnan(value)
    return False


def coerce_number(value: Value) -> float | int | None:
    """Best-effort conversion of a cell to a number, else None.

    Handles thousands separators, currency symbols, percent signs and
    surrounding whitespace, which are all common in scraped CSV files.
    An integer beyond float range is not a usable number (see
    ``_FLOAT_MAX``).
    """
    if is_numeric(value):
        if value.__class__ is int and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return None
        return value  # type: ignore[return-value]
    if not isinstance(value, str):
        return None
    text = value.strip().replace(",", "")
    if not text:
        return None
    if text.startswith("$"):
        text = text[1:]
    if text.endswith("%"):
        text = text[:-1]
    negative = False
    if text.startswith("(") and text.endswith(")"):
        negative = True
        text = text[1:-1]
    try:
        number = int(text)
    except ValueError:
        try:
            number = float(text)
        except ValueError:
            return None
        if math.isnan(number) or math.isinf(number):
            return None
    else:
        if not -_FLOAT_MAX <= number <= _FLOAT_MAX:
            return None
    return -number if negative else number


def normalize_string(value: Value) -> str:
    """Canonical form used for equality predicates: lowercase, stripped."""
    if value is None:
        return ""
    return str(value).strip().lower()


def cell_key(cell: Value) -> tuple:
    """Key under which two raw cells are *the same cell*.

    ``==`` is too coarse for that: ``1 == 1.0 == True`` and
    ``0.0 == -0.0``, yet each of them normalizes or coerces differently
    (``"1"``, ``"1.0"``, ``"true"``; ``"0.0"``, ``"-0.0"``). The key adds
    the cell's class and the sign of a float zero. A NaN equals only
    itself as an object, so two NaN objects get two keys; both have the
    same images, which costs a repeated computation and nothing else.
    """
    if isinstance(cell, float) and cell == 0.0:
        return (cell.__class__, cell, math.copysign(1.0, cell))
    return (cell.__class__, cell)


#: Cell classes that equal no cell of another class.
_TEXT_CLASSES = frozenset({str, type(None)})


class _RawIds:
    """Every cell's index into the distinct cells, as an iterable: the
    index is built on ``iter()``, so unread it costs nothing, and the
    iterator it returns runs in C."""

    __slots__ = ("_memo", "_keys")

    def __init__(self, memo: dict, keys: Sequence) -> None:
        self._memo = memo
        self._keys = keys

    def __iter__(self) -> Iterator[int]:
        index = dict(zip(self._memo, range(len(self._memo))))
        return map(index.__getitem__, self._keys)


def factorize(cells: Sequence[Value]) -> tuple[list[Value], Iterable[int]]:
    """Distinct raw cells in first-seen order, and every cell's index
    into them (lazily; unread, it costs nothing).

    "Distinct" is by :func:`cell_key`, but the scan stays in C: when the
    column holds numbers of at most one class and no float zero, ``==``
    already separates exactly what the key separates and the cells are
    their own keys. A caller then does its Python work once per distinct
    cell and gathers by index.
    """
    memo = dict.fromkeys(cells)
    # A str or None equals no instance of another class; numbers can. So
    # a number among the cells leaves a number among the distinct ones,
    # and only then must every cell's class be read.
    kinds = set(map(type, memo))
    if not kinds <= _TEXT_CLASSES:
        kinds = set(map(type, cells))
    numbers = kinds - _TEXT_CLASSES
    if len(numbers) <= 1 and not (
        0.0 in memo and any(issubclass(kind, float) for kind in numbers)
    ):
        keys, distinct = cells, list(memo)
    else:
        keys = list(map(cell_key, cells))
        memo = dict.fromkeys(keys)
        distinct = [key[1] for key in memo]
    return distinct, _RawIds(memo, keys)


def values_equal(left: Value, right: Value) -> bool:
    """Equality used by unary predicates.

    Numbers compare numerically (``3 == 3.0``); everything else compares via
    :func:`normalize_string`. NULL equals nothing, not even NULL, matching
    SQL semantics for ``=``.
    """
    if left is None or right is None:
        return False
    left_num = coerce_number(left) if not isinstance(left, str) else None
    right_num = coerce_number(right) if not isinstance(right, str) else None
    if left_num is not None and right_num is not None:
        return left_num == right_num
    return normalize_string(left) == normalize_string(right)


def value_sort_key(value: Value) -> tuple[int, Any]:
    """Total order over mixed-type cells (NULL < numbers < strings)."""
    if value is None:
        return (0, 0)
    if is_numeric(value):
        return (1, value)
    return (2, normalize_string(value))
