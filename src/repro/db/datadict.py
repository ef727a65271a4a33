"""Data dictionary parsing.

A data dictionary maps column names to free-text descriptions (paper
Section 4.2: "If a data dictionary is provided, we add for each column the
data dictionary description to its associated keywords"). We support the
common two-column CSV format ``column,description`` and a simple
``column: description`` line format.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from repro.db.schema import Column, Table
from repro.errors import DataDictionaryError


def parse_data_dictionary(text: str) -> dict[str, str]:
    """Parse dictionary text into a {column_name: description} mapping."""
    stripped = text.strip()
    if not stripped:
        raise DataDictionaryError("empty data dictionary")
    if _looks_like_csv(stripped):
        return _parse_csv(stripped)
    return _parse_lines(stripped)


def load_data_dictionary(path: str | Path) -> dict[str, str]:
    """Read and parse a data dictionary file."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise DataDictionaryError(f"cannot read {path}: {exc}") from exc
    return parse_data_dictionary(text)


def apply_data_dictionary(table: Table, dictionary: dict[str, str]) -> Table:
    """Return a copy of ``table`` with column descriptions filled in.

    Lookup is case-insensitive; unknown dictionary entries are ignored (real
    dictionaries routinely describe columns that were dropped from the data).
    """
    lowered = {name.strip().lower(): desc for name, desc in dictionary.items()}
    columns = []
    for column in table.columns:
        description = lowered.get(column.name.strip().lower(), column.description)
        columns.append(Column(column.name, column.type, description))
    # with_columns keeps the row storage: a plain Table shares its row
    # list, a SQL-file-backed table stays lazy (no materialization).
    return table.with_columns(columns)


def _looks_like_csv(text: str) -> bool:
    first = text.splitlines()[0]
    return "," in first and ":" not in first.split(",")[0]


def _parse_csv(text: str) -> dict[str, str]:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [
            row for row in reader if row and any(cell.strip() for cell in row)
        ]
    except csv.Error as exc:
        # Fields over csv.field_size_limit or broken quoting: surface the
        # structured error, never a raw _csv.Error traceback.
        raise DataDictionaryError(f"data dictionary: {exc}") from exc
    if not rows:
        raise DataDictionaryError("data dictionary has no rows")
    start = 0
    head = [cell.strip().lower() for cell in rows[0]]
    if head[:1] == ["column"] or head[:1] == ["name"] or head[:1] == ["field"]:
        start = 1
    mapping: dict[str, str] = {}
    for row in rows[start:]:
        if len(row) < 2:
            continue
        name = row[0].strip()
        description = ",".join(cell.strip() for cell in row[1:] if cell.strip())
        if name:
            mapping[name] = description
    if not mapping:
        raise DataDictionaryError("data dictionary contains no usable entries")
    return mapping


def _parse_lines(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or ":" not in line:
            continue
        name, _, description = line.partition(":")
        if name.strip():
            mapping[name.strip()] = description.strip()
    if not mapping:
        raise DataDictionaryError("data dictionary contains no usable entries")
    return mapping
