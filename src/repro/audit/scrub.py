"""Offline deep scrub of every persisted state tier (``repro scrub``).

Four tiers persist across process restarts, each with its own framing and
its own repair story; the scrubber walks them all and emits one
machine-readable report:

========================  ==========================  =====================
tier                      structural check            semantic check
========================  ==========================  =====================
disk cube cache           magic + CRC32 + unpickle    recompute cells from
(``*.cube``)              (quarantines on failure)    the source database,
                                                      compare bit-exact,
                                                      quarantine mismatches
queue journal             per-record CRC32 (v2),      — (payloads are
(``queue.journal``)       truncated-tail detection    verdicts; the online
                                                      shadow auditor covers
                                                      them at ack time)
corpus checkpoints        magic + per-record CRC32    — (a resumed run
(``RCKPT3`` framing)      (v3), truncated-tail        recomputes skipped
                          detection                   records and rewrites
                                                      the file)
incremental memo LRU      per-entry CRC32 on every    shadow auditor
(in-memory, not walked    hit (in process)            repairs divergent
here)                                                 entries at ack time
========================  ==========================  =====================

Semantic validation of the disk tier needs the source data: pass the
databases (``--csv`` on the CLI) and every entry whose ``meta``
fingerprint matches one of them is recomputed; entries for unknown
fingerprints, and entries of any backend but a cube backend (``row``, the
NAIVE oracle, cannot recompute a cube, and a name outside
:data:`~repro.db.adapters.BACKENDS` has no adapter here), get the
structural check only (counted ``skipped_semantic``).

Exit contract of the CLI: 0 when every walked tier is clean, 4 when any
corruption was found (all of it quarantined or flagged — a second scrub
over repaired state exits 0).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.db.adapters import BACKENDS, create_adapter
from repro.db.cube import CubeQuery
from repro.db.diskcache import DiskCubeCache, fingerprint_of
from repro.db.engine import ORACLE_BACKEND
from repro.db.values import DEFAULT_LITERAL

if TYPE_CHECKING:
    from repro.db.schema import Database


def _bit_equal(a: object, b: object) -> bool:
    """Bit-exact value comparison: type-strict, reprs for floats (so
    ``-0.0`` vs ``0.0`` and NaN payload drift count as mismatches)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


def recomputable(meta: dict) -> bool:
    """Whether an entry's backend exists here and runs cubes, so its cells
    can be recomputed: ``columnar`` and ``sqlite``."""
    backend = meta.get("backend")
    return backend in BACKENDS and backend != ORACLE_BACKEND


def recompute_matches(
    database: "Database", payload: dict, graphs: dict | None = None
) -> bool:
    """Re-execute a disk-cache entry's cube and compare cells bit-exact.

    Cells keyed into the default bucket are skipped: their value depends
    on which *other* literals the producing cube collapsed, so they are
    not reproducible from the merged literal set — and by the same
    argument the engine never serves them for a specific literal.
    ``graphs`` memoizes storage-adapter construction across entries of
    one database (entries name the backend that produced them, so the
    recompute runs through the same adapter — join memo, SQL connection
    and all).
    """
    meta = payload["meta"]
    backend = str(meta["backend"])
    key = (id(database), backend)
    adapter = graphs.get(key) if graphs is not None else None
    if adapter is None:
        adapter = create_adapter(backend, database)
        if graphs is not None:
            graphs[key] = adapter
    literals = payload["literals"]
    dims = tuple(meta["dims"])
    cube = CubeQuery(
        tables=frozenset(meta["tables"]),
        dimensions=dims,
        literals=tuple(
            (dim, frozenset(literals.get(dim, ()))) for dim in dims
        ),
        aggregates=(meta["spec"],),
    )
    fresh = adapter.execute_cube(cube).cells_for(meta["spec"])
    for cell_key, value in payload["cells"].items():
        if any(part == DEFAULT_LITERAL for part in cell_key):
            continue
        if cell_key not in fresh or not _bit_equal(fresh[cell_key], value):
            return False
    return True


def scrub_disk_cache(
    cache_dir: str | Path,
    databases: "Iterable[Database] | None" = None,
) -> dict:
    """Walk every ``*.cube`` entry: structural always, semantic when the
    owning database was provided. Corrupt entries are quarantined."""
    cache = DiskCubeCache(cache_dir)
    by_fp = {fingerprint_of(db): db for db in (databases or [])}
    graphs: dict = {}
    report = {
        "tier": "disk_cache",
        "path": str(cache.root),
        "scanned": 0,
        "ok": 0,
        "structural_corrupt": 0,
        "semantic_mismatch": 0,
        "quarantined": 0,
        "skipped_semantic": 0,
        "previously_quarantined": len(
            list(cache.root.glob("*.cube.corrupt"))
        ),
    }
    for path in cache.entries():
        report["scanned"] += 1
        payload = cache.read_payload(path)
        if payload is None:
            report["structural_corrupt"] += 1
            report["quarantined"] += 1
            continue
        meta = payload.get("meta")
        if not isinstance(meta, dict) or "fingerprint" not in meta:
            cache.quarantine(path)
            report["structural_corrupt"] += 1
            report["quarantined"] += 1
            continue
        database = by_fp.get(meta["fingerprint"])
        if database is None or not recomputable(meta):
            report["skipped_semantic"] += 1
            report["ok"] += 1
            continue
        if recompute_matches(database, payload, graphs):
            report["ok"] += 1
        else:
            cache.quarantine(path)
            report["semantic_mismatch"] += 1
            report["quarantined"] += 1
    report["corrupt"] = (
        report["structural_corrupt"] + report["semantic_mismatch"]
    )
    return report


def scrub_journal(queue_dir: str | Path) -> dict:
    """Structural scan of the queue journal (read-only, never compacts)."""
    from repro.service.queue import JOURNAL_NAME, scan_journal

    scan = scan_journal(Path(queue_dir) / JOURNAL_NAME)
    return {"tier": "queue_journal", **scan}


def scrub_checkpoint(path: str | Path) -> dict:
    """Structural scan of one corpus checkpoint file."""
    from repro.harness.checkpoint import scan_checkpoint

    scan = scan_checkpoint(path)
    corrupt = scan["corrupt"] + (0 if scan["format_ok"] else 1)
    return {"tier": "checkpoint", **scan, "corrupt": corrupt}


def scrub_state(
    cache_dir: str | Path | None = None,
    queue_dir: str | Path | None = None,
    checkpoints: "Iterable[str | Path]" = (),
    databases: "Iterable[Database] | None" = None,
) -> dict:
    """Scrub every requested tier; the CLI serializes this as the report.

    ``clean`` is the exit-code driver: False as soon as any walked tier
    held corruption (even corruption that is now quarantined — the caller
    deserves to know this pass found something).
    """
    tiers = []
    if cache_dir is not None:
        tiers.append(scrub_disk_cache(cache_dir, databases))
    if queue_dir is not None:
        tiers.append(scrub_journal(queue_dir))
    for checkpoint in checkpoints:
        tiers.append(scrub_checkpoint(checkpoint))
    corrupt_total = sum(tier.get("corrupt", 0) for tier in tiers)
    truncated = any(tier.get("truncated") for tier in tiers)
    return {
        "tiers": tiers,
        "corrupt_total": corrupt_total,
        "truncated": truncated,
        "clean": corrupt_total == 0 and not truncated,
    }
