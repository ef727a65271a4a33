"""Persistent second-tier cube cache (below the in-memory ``ResultCache``).

The paper's Section 6 argument is that verification cost is dominated by
redundant query work; the in-memory :class:`~repro.db.cache.ResultCache`
exploits that *within* one process, but ablation sweeps, EM re-runs, and
parallel corpus workers repeat the same cube queries across processes. This
module adds a filesystem tier:

- Entries are keyed by ``(database content fingerprint, execution backend,
  join signature, cube signature)`` — i.e. the memory tier's ``(tables,
  aggregate spec, dimension set)`` key prefixed with a SHA-256 fingerprint
  of the database *content* and the backend name. Editing a source CSV
  changes the fingerprint, so stale cells are structurally unreachable (no
  mtime bookkeeping), and backends with different edge-case semantics
  never exchange cells. The fingerprint hashes each in-memory table's
  rows as marshal format-2 chunks, serialized in C (no Python call per
  cell; see :func:`database_fingerprint`), and a storage-backed table's
  ``content_token`` instead of its rows.
- Each entry stores the literal coverage alongside the cells (same
  semantics as :class:`~repro.db.cache.CacheEntry`): a lookup that needs an
  uncovered literal is a miss, and a store merges with whatever is already
  on disk so coverage only grows.
- Writes go to a temporary file in the cache directory followed by
  ``os.replace``, so concurrent workers sharing one warm cache directory
  never observe torn entries (last writer wins; both payloads are valid).

Corrupt or unreadable entries are treated as misses — a cache must never
turn an IO hiccup into a pipeline failure. A corrupt *payload* (bad magic,
CRC32 mismatch, or a torn/scribbled pickle) is additionally quarantined on
the spot: the file is renamed to ``<name>.cube.corrupt`` (unlinked if even
the rename fails), so one bad file costs exactly one recompute-and-rewrite
instead of a silent perpetual miss. Quarantines are counted in
:class:`DiskCacheStats.corrupt` and mirrored into
``EngineStats.disk_corrupt`` by every engine sharing the cache.

Format v2 (this revision) adds the integrity surface: every file starts with a
magic tag plus a CRC32 of the pickled payload (single bit flips are now
*detected*, not just lucky unpickle failures), the payload carries a
``meta`` block (fingerprint, backend, tables, aggregate spec, dimensions)
sufficient to *recompute* the stored cells from the source database, and
file names are prefixed with the owning database fingerprint. See
:mod:`repro.scrub` for the offline scrubber that consumes
:meth:`entries` / :meth:`read_payload` / :meth:`quarantine`.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import pickle
import struct
import tempfile
import weakref
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import faults
from repro.db.cube import CellKey
from repro.db.query import AggregateSpec, ColumnRef
from repro.db.schema import Database
from repro.db.values import Value
from repro.errors import InjectedFault

#: Bump when the on-disk payload layout changes; old entries become
#: unreachable (different file names) instead of unreadable.
CACHE_FORMAT_VERSION = 2

#: File preamble: magic tag, then a big-endian CRC32 of the pickled
#: payload that follows. The magic catches scribbles and foreign files;
#: the CRC catches bit rot that still unpickles.
_MAGIC = b"RCUBE2\x00"
_CRC = struct.Struct(">I")

_SEP = "\x1f"
_ROW_END = "\x1e"

#: Rows per ``marshal.dumps`` call when hashing a table: large enough that
#: the per-call overhead vanishes, small enough that the transient blob
#: stays a few hundred KB whatever the table's size.
_MARSHAL_CHUNK_ROWS = 4096


def database_fingerprint(database: Database) -> str:
    """SHA-256 over the database's full content and join structure.

    Covers table names, column names/types, every cell value (with its
    type, so ``1``, ``1.0``, ``True`` and ``"1"`` differ, as do ``0.0``
    and ``-0.0``), and the foreign-key edges that determine join
    signatures. Any data edit — including via a re-loaded CSV — yields a
    different fingerprint; equal content yields an equal one whatever
    the object identity, process or hash seed. Rows are serialized in C
    (see :func:`_rows_token`); storage-backed tables contribute their
    ``content_token`` instead of their rows.
    """
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8", "surrogatepass"))

    feed(f"v{CACHE_FORMAT_VERSION}{_ROW_END}")
    for fk in sorted(str(fk) for fk in database.foreign_keys):
        feed(f"F{fk}{_ROW_END}")
    for table in sorted(database.tables, key=lambda t: t.name):
        feed(f"T{table.name}{_ROW_END}")
        for column in table.columns:
            feed(f"C{column.name}:{column.type.value}{_SEP}")
        feed(_ROW_END)
        token = getattr(table, "content_token", None)
        if token is not None:
            # Storage-backed tables (e.g. SQLite files) summarize their
            # content identity without streaming every row through Python
            # — fingerprinting a 10M-row file must not materialize it.
            feed(f"K{token()}{_ROW_END}")
            continue
        feed(f"{_rows_token(table.rows)}{_ROW_END}")
    return digest.hexdigest()


def _rows_token(rows: list[tuple[Value, ...]]) -> str:
    """Tagged SHA-256 of a table's rows.

    ``M``: the rows as marshal format-2 chunks. Format 2 tags every cell's
    exact type and writes floats in binary; unlike formats 3-4 and pickle
    it marks neither shared objects nor interned strings, so the bytes
    depend on cell types and values only, never on object identity. ``P``:
    the per-cell token stream, for rows holding a cell marshal refuses
    (a ``str`` subclass, ``Decimal``, a NumPy scalar).
    """
    digest = hashlib.sha256()
    try:
        for start in range(0, len(rows), _MARSHAL_CHUNK_ROWS):
            chunk = rows[start:start + _MARSHAL_CHUNK_ROWS]
            digest.update(marshal.dumps(chunk, 2))
        return f"M{digest.hexdigest()}"
    except ValueError:
        digest = hashlib.sha256()
        for row in rows:
            text = "".join(map(_cell_token, row)) + _ROW_END
            digest.update(text.encode("utf-8", "surrogatepass"))
        return f"P{digest.hexdigest()}"


def _cell_token(cell: Value) -> str:
    if cell is None:
        return f"N{_SEP}"
    return f"{type(cell).__name__}:{cell!r}{_SEP}"


#: Fingerprints memoized per live Database object. Databases are immutable
#: after construction (tables/rows are tuples), so one hash per object is
#: sound; weak keys mean the memo never extends a database's lifetime.
_FINGERPRINT_MEMO: "weakref.WeakKeyDictionary[Database, str]" = (
    weakref.WeakKeyDictionary()
)


def fingerprint_of(database: Database) -> str:
    """Memoized :func:`database_fingerprint` (one content hash per object).

    The engine's disk-cache keys, the service layer's checker pool, and the
    incremental re-check tier all key state by the same content
    fingerprint; this shared memo makes sure each Database object is hashed
    once no matter how many layers ask.
    """
    fingerprint = _FINGERPRINT_MEMO.get(database)
    if fingerprint is None:
        fingerprint = database_fingerprint(database)
        _FINGERPRINT_MEMO[database] = fingerprint
    return fingerprint


@dataclass
class DiskCacheStats:
    """Filesystem-tier counters (the engine mirrors them into EngineStats)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0
    #: Corrupt payloads quarantined (a subset of ``errors``).
    corrupt: int = 0
    #: Engines that skipped the disk tier because their database fell
    #: below ``disk_cache_min_rows`` (recompute beats a disk round-trip).
    skipped_small: int = 0


class DiskCubeCache:
    """Shared, persistent store of cube cells keyed by database content.

    One instance wraps one cache directory; any number of engines (and
    processes) may share the directory concurrently.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = DiskCacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DiskCubeCache({str(self.root)!r})"

    def _entry_key(
        self,
        fingerprint: str,
        backend: str,
        tables: frozenset[str],
        spec: AggregateSpec,
        dims: tuple[ColumnRef, ...],
    ) -> str:
        # The backend is part of the key: the columnar and row-wise
        # executors have (documented) edge-case semantic differences, e.g.
        # infinite floats, so their cells must never be interchanged.
        return _SEP.join(
            [
                f"v{CACHE_FORMAT_VERSION}",
                fingerprint,
                backend,
                ",".join(sorted(tables)),
                str(spec),
                ",".join(str(dim) for dim in dims),
            ]
        )

    def _path(self, fingerprint: str, entry_key: str) -> Path:
        # The fingerprint prefix makes per-database invalidation (and the
        # scrubber's "entries owned by X" query) a filename glob instead
        # of a read-every-payload scan.
        digest = hashlib.sha256(entry_key.encode("utf-8")).hexdigest()
        return self.root / f"{fingerprint[:16]}-{digest[:48]}.cube"

    def load(
        self,
        fingerprint: str,
        backend: str,
        tables: frozenset[str],
        spec: AggregateSpec,
        dims: tuple[ColumnRef, ...],
        literal_map: dict[ColumnRef, frozenset[str]],
    ) -> tuple[dict[ColumnRef, set[str]], dict[CellKey, Value]] | None:
        """Return ``(literals, cells)`` covering ``literal_map``, else None."""
        entry_key = self._entry_key(fingerprint, backend, tables, spec, dims)
        payload = self._read(self._path(fingerprint, entry_key), entry_key)
        if payload is not None:
            literals = payload["literals"]
            covered = all(
                wanted <= literals.get(dim, set())
                for dim, wanted in literal_map.items()
            )
            if covered:
                self.stats.hits += 1
                return literals, payload["cells"]
        self.stats.misses += 1
        return None

    def store(
        self,
        fingerprint: str,
        backend: str,
        tables: frozenset[str],
        spec: AggregateSpec,
        dims: tuple[ColumnRef, ...],
        literals: dict[ColumnRef, set[str]],
        cells: dict[CellKey, Value],
    ) -> None:
        """Merge an entry into the directory with an atomic replace."""
        entry_key = self._entry_key(fingerprint, backend, tables, spec, dims)
        path = self._path(fingerprint, entry_key)
        existing = self._read(path, entry_key)
        merged_literals = {dim: set(values) for dim, values in literals.items()}
        merged_cells = dict(cells)
        if existing is not None:
            # Another run (or worker) may have covered more literals; keep
            # the union so disk coverage only grows.
            for dim, values in existing["literals"].items():
                merged_literals.setdefault(dim, set()).update(values)
            for key, value in existing["cells"].items():
                merged_cells.setdefault(key, value)
        # Fault point (semantic tier): poison a cell value *before* the
        # CRC is computed — the file is structurally pristine, so only a
        # recompute-and-compare scrub can catch it.
        # (``path.stem``, not ``.name``: a ``match="*.cube"`` glob arming
        # the structural flip below must not also consume fires here.)
        try:
            faults.fire("state.bitflip", key=f"cell:{path.stem}")
        except InjectedFault:
            merged_cells = _poison_cells(merged_cells)
        payload = {
            "key": entry_key,
            # Everything a scrubber needs to recompute the cells from the
            # source database, without reverse-parsing the entry key.
            "meta": {
                "fingerprint": fingerprint,
                "backend": backend,
                "tables": tables,
                "spec": spec,
                "dims": dims,
            },
            "literals": merged_literals,
            "cells": merged_cells,
        }
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    body = pickle.dumps(
                        payload, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    handle.write(_MAGIC)
                    handle.write(_CRC.pack(zlib.crc32(body)))
                    handle.write(body)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.stats.writes += 1
        except OSError:
            self.stats.errors += 1  # full/read-only disk: degrade silently
            return
        # Fault point (structural tier): flip one byte of the file just
        # written — the CRC catches it on the next read.
        faults.fire("state.bitflip", key=path.name, payload=path)

    def _read(self, path: Path, entry_key: str | None = None) -> dict | None:
        faults.fire("diskcache.read", key=path.name, payload=path)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.stats.errors += 1  # transient IO: miss, keep the file
            return None
        payload = _decode(blob)
        if payload is None:
            # Bad magic, CRC mismatch, or a torn pickle: quarantine so the
            # next store rewrites a fresh entry instead of missing forever.
            self.stats.errors += 1
            self.stats.corrupt += 1
            self._quarantine(path)
            return None
        # SHA-256 collisions are fantasy, but the stored key also guards
        # against format drift and hand-copied cache directories.
        if entry_key is not None and payload.get("key") != entry_key:
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the ``*.cube`` namespace."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                self.stats.errors += 1  # truly stuck: next read retries

    # -- integrity surface ---------------------------------------------

    def entries(self) -> list[Path]:
        """Every live entry file, sorted for deterministic scrub order."""
        return sorted(self.root.glob("*.cube"))

    def read_payload(self, path: Path) -> dict | None:
        """Structurally validate one entry (corrupt files are quarantined).

        Returns the decoded payload, or None when the file is missing or
        failed magic/CRC/unpickle validation (counted and quarantined,
        same as a production read).
        """
        return self._read(path)

    def quarantine(self, path: Path) -> None:
        """Quarantine an entry the *scrubber* proved wrong (bit-identity
        failure against a recompute) — structural corruption is already
        quarantined by :meth:`read_payload`."""
        self.stats.corrupt += 1
        self._quarantine(path)

    def clear(self) -> None:
        """Remove every entry (leaves the directory in place)."""
        for path in self.root.glob("*.cube"):
            try:
                path.unlink()
            except OSError:
                self.stats.errors += 1


def _decode(blob: bytes) -> dict | None:
    """Validate magic + CRC framing and unpickle; None on any corruption."""
    if not blob.startswith(_MAGIC) or len(blob) < len(_MAGIC) + _CRC.size:
        return None
    offset = len(_MAGIC)
    (crc,) = _CRC.unpack_from(blob, offset)
    body = blob[offset + _CRC.size:]
    if zlib.crc32(body) != crc:
        return None
    try:
        payload = pickle.loads(body)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    return payload


def _poison_cells(cells: dict[CellKey, Value]) -> dict[CellKey, Value]:
    """Corrupt one cell value (the ``state.bitflip`` semantic action).

    Prefers a cell outside the default bucket: default-bucket values are
    legitimately irreproducible from a merged literal set, so the
    scrubber skips them — poisoning one would be undetectable by design.
    """
    from repro.db.values import DEFAULT_LITERAL

    ordered = sorted(cells, key=repr)
    candidates = [
        key
        for key in ordered
        if not any(part == DEFAULT_LITERAL for part in key)
    ] or ordered
    poisoned = dict(cells)
    for key in candidates:
        value = poisoned[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            poisoned[key] = 1  # None/str/bool: any wrong-typed stand-in
        else:
            poisoned[key] = value + 1
        break
    return poisoned
