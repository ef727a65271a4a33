"""Warm verification state shared by admission and the queue workers.

One long-running ``python -m repro serve`` process keeps fragment
extraction, compiled fragment indexes, the in-memory result cache, and
(when configured) the disk cube cache hot across requests — the
interactive deployment shape of the paper's tool, where only the *first*
request against a database pays startup cost. :class:`VerificationService`
holds that state:

- the :class:`~repro.harness.runner.CheckerPool`, one checker per
  (database content, data dictionary, config) fingerprint;
- the reference registry behind ``{"database": <fingerprint>}`` requests,
  which is also how a queue worker finds the checker admission resolved;
- the incremental re-check tier (:class:`IncrementalCache`), one memo
  of whole-document verdicts;
- the counters ``GET /health`` and ``GET /stats`` report.

Its users are the HTTP front end (:mod:`repro.service.aio`), which
admits requests through :meth:`VerificationService.prepare`, and the
queue workers (:mod:`repro.service.workers`), which find each group's
checker through :meth:`VerificationService.resolve_scope`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass

from repro.core.checker import AggChecker
from repro.core.config import AggCheckerConfig
from repro.db.diskcache import fingerprint_of
from repro.errors import ReproError
from repro.harness.runner import CheckerPool, PoolEntry
from repro.service.incremental import IncrementalCache, scope_fingerprint
from repro.service.protocol import (
    CheckRequest,
    data_spec,
    enforce_claim_limit,
    spec_request,
)
from repro.text.claims import Claim, detect_claims
from repro.text.document import Document


@dataclass(frozen=True)
class PreparedCheck:
    """Everything admission resolved for one document.

    Holds no Database reference: the pool entry's ``keepalive`` already
    pins the data for as long as the checker lives.
    """

    document: Document
    entry: PoolEntry
    claims: list[Claim]
    database_fp: str
    scope_fp: str


class VerificationService:
    """Warm, thread-safe verification state shared across requests."""

    def __init__(
        self,
        config: AggCheckerConfig | None = None,
        max_databases: int = 64,
    ) -> None:
        if max_databases < 1:
            raise ValueError(f"max_databases must be >= 1, got {max_databases}")
        self.config = config or AggCheckerConfig()
        self.pool = CheckerPool(self.config)
        self.cache = IncrementalCache()
        self.max_databases = max_databases
        self.started = time.monotonic()
        self._counter_lock = threading.Lock()
        # The reference registry. Two token spaces: scope fingerprints
        # (checker fingerprints — exact: data + dictionary + config) in
        # LRU order, and database content fingerprints mapping to every
        # scope they were registered under (ambiguous when the same
        # content was submitted with different dictionaries). Bounded:
        # checkers pin a compiled index, result cache, and the full data,
        # so the least recently used database is evicted past
        # ``max_databases``.
        self._registry_lock = threading.Lock()
        self._by_scope: "OrderedDict[str, tuple[str, PoolEntry]]" = (
            OrderedDict()
        )
        self._by_content: dict[str, dict[str, PoolEntry]] = {}
        # scope fingerprint -> the JSON-serializable data spec (csv paths /
        # inline tables / dictionary) it was registered from. The queue
        # tier journals this with each job so a restarted server can
        # rebuild the checker for fingerprint-referenced requests.
        self._sources: dict[str, dict] = {}
        self.requests = 0
        self.claims_served = 0
        self.claims_from_cache = 0
        self.request_errors = 0
        self.rejected_requests = 0
        self.dropped_streams = 0
        self.claim_errors = 0

    def prepare(self, request: CheckRequest) -> PreparedCheck:
        """Load data, warm (or reuse) the checker, detect claims.

        Raises :class:`ProtocolError`/:class:`ReproError`/``OSError``
        *before* any response bytes are committed, so transport errors
        map cleanly to HTTP status codes.
        """
        document = request.load_document()
        if request.database is not None:
            database_fp, scope_fp, entry = self._resolve_reference(
                request.database
            )
        else:
            database_fp, scope_fp, entry = self._load(request)
        claims = detect_claims(document, self.config.claim_detection)
        enforce_claim_limit(len(claims))
        with self._counter_lock:
            self.requests += 1
        return PreparedCheck(document, entry, claims, database_fp, scope_fp)

    def resolve_scope(self, scope_fp: str, source: dict) -> PoolEntry:
        """The pool entry a queued group runs on.

        Registry first: while ``scope_fp`` is registered, this is the
        checker admission resolved — no CSV parse, no re-hash, and data
        edited on disk since admission cannot leak into the verdicts.
        Only an unregistered scope (a restarted process, an LRU eviction)
        is rebuilt from the journaled data spec ``source``; if the data
        no longer hashes to ``scope_fp`` this raises, so the group is
        dead-lettered instead of verified on other data under the
        admitted fingerprint.
        """
        with self._registry_lock:
            registered = self._by_scope.get(scope_fp)
            if registered is not None:
                self._by_scope.move_to_end(scope_fp)
                _, entry = registered
                return entry
        request = spec_request(source, article="", title="document")
        _, _, entry = self._load(request, expected_scope=scope_fp)
        return entry

    def _load(
        self, request: CheckRequest, expected_scope: str | None = None
    ) -> tuple[str, str, PoolEntry]:
        """Load the request's data, then pool and register its checker."""
        database = request.load_database()
        dictionary = request.load_dictionary()
        database_fp = fingerprint_of(database)
        scope_fp = scope_fingerprint(database_fp, self.config, dictionary)
        if expected_scope is not None and scope_fp != expected_scope:
            raise ReproError(
                f"data changed since admission: checker fingerprint "
                f"{expected_scope[:16]}... now loads as {scope_fp[:16]}..."
            )
        entry = self.pool.entry_for(
            ("content", scope_fp),
            lambda: AggChecker(database, self.config, dictionary),
            keepalive=database,
        )
        self._register(database_fp, scope_fp, entry, data_spec(request))
        return database_fp, scope_fp, entry

    def _resolve_reference(
        self, token: str
    ) -> tuple[str, str, PoolEntry]:
        """Map a fingerprint reference to its registered checker.

        Accepts either a checker fingerprint (exact) or a database
        content fingerprint. The latter is rejected as ambiguous when the
        same content was registered under more than one data dictionary —
        a reference must never silently bind to a different dictionary
        than the client registered with.
        """
        with self._registry_lock:
            by_scope = self._by_scope.get(token)
            if by_scope is not None:
                self._by_scope.move_to_end(token)
                database_fp, entry = by_scope
                return database_fp, token, entry
            scopes = self._by_content.get(token)
            if scopes is not None:
                if len(scopes) > 1:
                    raise ReproError(
                        f"database fingerprint {token[:16]}... is "
                        f"registered under {len(scopes)} different data "
                        "dictionaries; reference the exact "
                        "'checker_fingerprint' from a start/summary event"
                    )
                scope_fp, entry = next(iter(scopes.items()))
                self._by_scope.move_to_end(scope_fp)
                return token, scope_fp, entry
        raise ReproError(
            f"unknown database fingerprint {token[:16]}...: register the "
            "data first by submitting its 'csv' paths or inline 'tables'"
        )

    def _register(
        self,
        database_fp: str,
        scope_fp: str,
        entry: PoolEntry,
        source: dict,
    ) -> None:
        with self._registry_lock:
            self._by_scope[scope_fp] = (database_fp, entry)
            self._by_scope.move_to_end(scope_fp)
            self._by_content.setdefault(database_fp, {})[scope_fp] = entry
            self._sources[scope_fp] = source
            while len(self._by_scope) > self.max_databases:
                old_scope, (old_db, _) = self._by_scope.popitem(last=False)
                self._sources.pop(old_scope, None)
                content_scopes = self._by_content.get(old_db)
                if content_scopes is not None:
                    content_scopes.pop(old_scope, None)
                    if not content_scopes:
                        del self._by_content[old_db]
                # Groups holding the entry finish unaffected; the checker
                # is garbage once they drain. Re-submitting the data
                # rebuilds it (incremental-tier entries survive: they are
                # keyed by the stable scope fingerprint).
                self.pool.discard(("content", old_scope))

    def source_for(self, scope_fp: str) -> dict | None:
        """The registered data spec behind one checker fingerprint."""
        with self._registry_lock:
            return self._sources.get(scope_fp)

    def health(self) -> dict:
        with self._counter_lock:
            counters = {
                "requests": self.requests,
                "claims_served": self.claims_served,
                "claims_from_cache": self.claims_from_cache,
                "request_errors": self.request_errors,
                "rejected_requests": self.rejected_requests,
                "dropped_streams": self.dropped_streams,
                "claim_errors": self.claim_errors,
            }
        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "databases": len(self.pool),
            **counters,
            "incremental": {
                "entries": len(self.cache),
                "hit_rate": round(self.cache.stats.hit_rate(), 4),
            },
        }

    def stats(self) -> dict:
        """Merged :class:`EngineStats` across pooled checkers + cache tiers."""
        engine = self.pool.stats_snapshot()
        payload = self.health()
        payload["engine"] = asdict(engine)
        payload["engine"]["memory_cache_hit_rate"] = round(
            engine.cache_hit_rate(), 4
        )
        payload["engine"]["disk_cache_hit_rate"] = round(
            engine.disk_hit_rate(), 4
        )
        cache_stats = self.cache.stats
        payload["incremental"].update(
            hits=cache_stats.hits,
            misses=cache_stats.misses,
            stores=cache_stats.stores,
            evictions=cache_stats.evictions,
            skipped=cache_stats.skipped,
            corrupted=cache_stats.corrupted,
        )
        return payload

    def note_error(self) -> None:
        with self._counter_lock:
            self.request_errors += 1

    def note_served(self, claims: int, cached: int) -> None:
        """Book one completed document."""
        with self._counter_lock:
            self.claims_served += claims
            self.claims_from_cache += cached

    def note_rejected(self) -> None:
        with self._counter_lock:
            self.rejected_requests += 1

    def note_dropped_stream(self) -> None:
        """A client hung up mid-stream (visible via GET /stats)."""
        with self._counter_lock:
            self.dropped_streams += 1

    def note_claim_error(self) -> None:
        with self._counter_lock:
            self.claim_errors += 1
