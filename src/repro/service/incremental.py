"""The incremental re-check tier: per-claim verdict memoization.

The editing loop the paper's interface implies — a journalist fixes one
number and resubmits the draft — repays claim-level caching: everything
the pipeline reads for a claim is captured by three fingerprints, and a
resubmission re-evaluates only claims whose key changed.

Key structure (all SHA-256):

- **database content fingerprint** (:func:`repro.db.diskcache.fingerprint_of`)
  — editing a source CSV changes it, so every cached verdict against the
  old data becomes structurally unreachable;
- **configuration fingerprint** (:func:`config_fingerprint` over the full
  frozen ``AggCheckerConfig``, folded with the data-dictionary content) —
  any knob change or dictionary edit invalidates;
- **claim fingerprint** (``claim_fingerprint`` in :mod:`repro.core.checker`) —
  the mention, its sentence, and the complete Algorithm-2 keyword context
  (previous sentence, paragraph start, enclosing headlines).

Reuse semantics: a hit returns the verdict exactly as computed in its
original submission. Claims of one document are weakly coupled through
pooled predicate fragments and learned document priors, so after an edit
the unchanged claims keep their verdicts (stable editor feedback) while
the edited claims are evaluated together as one fresh batch; a
non-incremental ``/check`` of the same body gives the canonical jointly
inferred result. A resubmission with *no* changed claims is bit-identical
to the warm path by construction.

The cache is a bounded, thread-safe LRU: the service is a long-running
process and documents churn, so least-recently-used verdicts fall out
once ``max_entries`` is reached.

**Self-checking entries.** Each stored payload carries a CRC32 of its
canonical JSON encoding (:func:`repro.service.protocol.payload_crc`),
re-verified on every hit: a memo whose bytes no longer match what was
stored (bit rot, or any accidental in-place mutation of the shared dict)
is dropped and counted (``corrupted``) — the miss recomputes a correct
verdict, so this tier can serve stale *nothing*, wrong *nothing*.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro import faults
from repro.core.config import AggCheckerConfig
from repro.errors import InjectedFault
from repro.service.protocol import payload_crc

#: Result-cache key: (scope fingerprint, claim fingerprint).
ResultKey = tuple[str, str]


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


@dataclass
class IncrementalStats:
    """Counters of the memoization tier (surfaced by GET /stats)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Degraded (budget or shed) payloads refused by :meth:`put`.
    skipped: int = 0
    #: Entries dropped on hit because their payload no longer matched its
    #: stored CRC (served as a miss; the recompute is always correct).
    corrupted: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class IncrementalCache:
    """Thread-safe bounded LRU of per-claim verdict payloads."""

    def __init__(self, max_entries: int = 16384) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.stats = IncrementalStats()
        self._lock = threading.Lock()
        #: key -> (payload, CRC32 of the payload at store time).
        self._entries: "OrderedDict[ResultKey, tuple[dict, int]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: ResultKey) -> dict | None:
        """The cached verdict payload for ``key`` (marks it most recent).

        Every hit is integrity-checked against the CRC taken at store
        time; a mismatch drops the entry and reports a miss, so the
        caller recomputes instead of serving a corrupted verdict.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            payload, crc = entry
            if payload_crc(payload) != crc:
                del self._entries[key]
                self.stats.corrupted += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return payload

    def put(self, key: ResultKey, payload: dict) -> None:
        # Never memoize a degraded verdict: a shed one reflects the
        # process's memory pressure at that moment, not the claim.
        # Caching it would pin a low-quality answer until eviction;
        # recomputing on resubmission gives the claim a fresh chance at
        # the full-quality rung.
        if payload.get("degraded"):
            with self._lock:
                self.stats.skipped += 1
            return
        crc = payload_crc(payload)
        # Fault point: poison the payload *after* its CRC was taken — the
        # next get() must detect the mismatch and degrade to a miss.
        try:
            faults.fire("state.bitflip", key=f"memo:{key[0]}")
        except InjectedFault:
            payload = dict(payload)
            payload["probability_correct"] = -1.0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (payload, crc)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
