"""The incremental re-check tier: per-document verdict memoization.

The editing loop the paper's interface implies — a journalist checks a
draft, then resubmits it — repays caching whole documents. A verdict is
a function of the whole document, not of one claim: the EM learns its
priors jointly over all of a document's claims (arXiv 1804.07686), so
the same sentence can get a different verdict in another document. The
memo therefore keys the document's complete list of verdict payloads:
a request either hits for every claim or verifies every claim as one
joint batch, and no verdict ever crosses from one document to another.

Key structure (all SHA-256):

- **scope fingerprint** (:func:`scope_fingerprint`) folds the database
  content fingerprint (:func:`repro.db.diskcache.fingerprint_of`) with
  the configuration fingerprint (:func:`config_fingerprint` over the
  full frozen ``AggCheckerConfig`` plus the data-dictionary content) —
  a CSV edit, a knob change or a dictionary edit makes every old entry
  unreachable;
- **document fingerprint** (:func:`document_fingerprint`) hashes the
  document's *ordered* claim fingerprints (``claim_fingerprint`` in
  :mod:`repro.core.checker`: each mention, its sentence, and its
  complete Algorithm-2 keyword context). Editing any claim's text or
  context, or reordering claims, misses; adding a sentence without a
  number that feeds no claim's context still hits.

A hit is bit-identical to a fresh joint run on the same body, and so to
``python -m repro check --json``.

The cache is a bounded, thread-safe LRU of :data:`MAX_DOCUMENTS`
documents: the service is a long-running process and documents churn,
so least-recently-used documents fall out.

**Self-checking entries.** Each stored payload list carries a CRC32 of
its canonical JSON encoding (:func:`repro.service.protocol.payload_crc`),
re-verified on every hit: a memo whose bytes no longer match what was
stored (bit rot, or any accidental in-place mutation of a shared dict)
is dropped and counted (``corrupted``) — the miss recomputes a correct
verdict, so this tier can serve stale *nothing*, wrong *nothing*.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import faults
from repro.core.checker import claim_fingerprint
from repro.core.config import AggCheckerConfig
from repro.errors import InjectedFault
from repro.service.protocol import payload_crc
from repro.text.claims import Claim

#: Result-cache key: (scope fingerprint, document fingerprint).
ResultKey = tuple[str, str]

#: Memo capacity in documents. At the corpus mean of about 8 claims per
#: document, 2048 documents hold about 16,384 claim verdicts, the bound
#: the tier had when it memoized single claims.
MAX_DOCUMENTS = 2048


def config_fingerprint(
    config: AggCheckerConfig, dictionary: dict[str, str] | None = None
) -> str:
    """Fingerprint of every pipeline knob plus the data-dictionary content.

    ``AggCheckerConfig`` is a frozen tree of dataclasses whose ``repr``
    deterministically enumerates every field, so hashing the repr covers
    each knob without a hand-maintained field list (a newly added knob is
    automatically part of the key).
    """
    digest = hashlib.sha256()
    digest.update(repr(config).encode("utf-8", "surrogatepass"))
    for column in sorted(dictionary or {}):
        token = f"\x1e{column}\x1f{(dictionary or {})[column]}"
        digest.update(token.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def scope_fingerprint(
    database_fp: str,
    config: AggCheckerConfig,
    dictionary: dict[str, str] | None = None,
) -> str:
    """The shared key prefix of one (database, configuration) universe."""
    combined = f"{database_fp}\x1f{config_fingerprint(config, dictionary)}"
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()


def document_fingerprint(claims: list[Claim]) -> str:
    """SHA-256 over a document's ordered claim fingerprints."""
    digest = hashlib.sha256()
    for claim in claims:
        digest.update(claim_fingerprint(claim).encode("ascii"))
    return digest.hexdigest()


@dataclass
class IncrementalStats:
    """Counters of the memoization tier (surfaced by GET /stats)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Documents refused by :meth:`put` for a degraded (budget or shed)
    #: payload.
    skipped: int = 0
    #: Entries dropped on hit because their payload no longer matched its
    #: stored CRC (served as a miss; the recompute is always correct).
    corrupted: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class IncrementalCache:
    """Thread-safe bounded LRU of per-document verdict payload lists."""

    def __init__(self, max_entries: int = MAX_DOCUMENTS) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = IncrementalStats()
        self._lock = threading.Lock()
        #: key -> (payloads in claim order, their CRC32 at store time).
        self._entries: "OrderedDict[ResultKey, tuple[list[dict], int]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: ResultKey) -> list[dict] | None:
        """The cached payloads for ``key`` (marks it most recent).

        Every hit is integrity-checked against the CRC taken at store
        time; a mismatch drops the entry and reports a miss, so the
        caller recomputes instead of serving a corrupted verdict.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            payloads, crc = entry
            if payload_crc(payloads) != crc:
                del self._entries[key]
                self.stats.corrupted += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return payloads

    def put(self, key: ResultKey, payloads: list[dict]) -> None:
        # Never memoize a document with a degraded verdict: a shed one
        # reflects the process's memory pressure at that moment, not the
        # claim. Caching it would pin a low-quality answer until
        # eviction; recomputing on resubmission gives the document a
        # fresh chance at the full-quality rung.
        if any(payload.get("degraded") for payload in payloads):
            with self._lock:
                self.stats.skipped += 1
            return
        crc = payload_crc(payloads)
        # Fault point: poison a payload *after* the CRC was taken — the
        # next get() must detect the mismatch and degrade to a miss.
        try:
            faults.fire("state.bitflip", key=f"memo:{key[0]}")
        except InjectedFault:
            payloads = [
                dict(payloads[0], probability_correct=-1.0), *payloads[1:]
            ]
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (payloads, crc)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
