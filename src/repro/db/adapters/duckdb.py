"""DuckDB pushdown adapter (optional extra, import-gated).

Registered unconditionally so ``--backend duckdb`` is always a known
spelling; :meth:`DuckdbAdapter.available` reports whether the ``duckdb``
package is importable, and :func:`~repro.db.adapters.base.create_adapter`
raises :class:`~repro.errors.MissingDependencyError` with an install hint
when it is not. Nothing in this module touches DuckDB at import time.

Storage model: the shadow tables of
:mod:`repro.db.adapters.sqlbase`, typed — codes ``BIGINT``, numbers
``DOUBLE`` — and filled by the shared encoder. No Python function is
registered on the connection; the SQL text is shared verbatim with the
SQLite adapter via :class:`~repro.db.adapters.sqlbase.SqlAdapterBase`.

A DuckDB column has one type, so MIN/MAX over all-integer columns come
back as floats (equal in value), as on the columnar route. Native
``GROUPING SETS`` in place of the ``UNION ALL`` arms is left for a later
change.
"""

from __future__ import annotations

from repro.db.adapters.base import AdapterCapabilities, register_adapter
from repro.db.adapters.sqlbase import SqlAdapterBase

try:  # pragma: no cover - exercised only where duckdb is installed
    import duckdb as _duckdb
except ImportError:  # pragma: no cover
    _duckdb = None


@register_adapter
class DuckdbAdapter(SqlAdapterBase):
    """SQL pushdown into DuckDB (columnar, vectorized OLAP engine)."""

    name = "duckdb"
    capabilities = AdapterCapabilities(
        pushdown=True, pagination=True, estimates_cardinality=True
    )

    @classmethod
    def available(cls) -> bool:
        return _duckdb is not None

    def _connect(self):
        assert _duckdb is not None, "guarded by available()"
        connection = _duckdb.connect(":memory:")
        self._load_tables(connection, "BIGINT", "DOUBLE")
        return connection
