"""Wire protocol of the verification service.

One request shape (:class:`CheckRequest`, parsed from the POST /check JSON
body) and one response framing: newline-delimited JSON (NDJSON), one
complete JSON object per line, streamed as results become available:

- ``{"event": "start", ...}`` — document accepted, claims detected;
- ``{"event": "claim", "index": i, "cached": bool, "claim": {...}}`` —
  one verdict. ``claim`` carries *exactly* the per-claim payload of
  ``python -m repro check --json`` (:func:`verdict_payload` is shared by
  the CLI), so service output is bit-comparable to one-shot runs.
  ``index`` is the claim's document-order ordinal — cached verdicts
  stream before fresh ones complete, so events may arrive out of
  document order;
- ``{"event": "summary", ...}`` — totals (including ``flagged`` and
  ``errors`` counts), cache/engine counters, timing;
- ``{"event": "error", "index": i, "error": msg}`` — *one claim* failed
  verification (the stream continues: remaining claims still get their
  events and the summary still arrives). A degraded claim carries
  ``"degraded"`` in its payload naming the rung: ``"scope"`` or
  ``"no_exec"`` under a space budget, ``"shed"`` (status
  ``unverifiable``) under memory pressure;
- ``{"event": "error", "error": msg}`` — terminal mid-stream failure
  (no ``index``): the whole stream is aborted after this event.

Articles arrive inline (``article`` text) or by server-side path
(``article_path``); content sniffing (HTML vs plain text) matches the
CLI. The database is referenced three ways: server-side CSV paths
(``csv``), inline CSV text (``tables``: name → CSV text), or — once a
prior request has registered the data — by fingerprint (``database``:
either the ``database_fingerprint`` or the ``checker_fingerprint``
echoed in every start and summary event). A fingerprint reference skips
the per-request CSV load and content hash entirely and pins the exact
data it was minted from: edited data has a different fingerprint, so a
stale reference can never silently check against new content, and a
content fingerprint registered under more than one data dictionary is
rejected as ambiguous (the checker fingerprint pins data + dictionary
exactly).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.verdict import ClaimVerdict
from repro.db.csvio import CsvLimits, load_csv, load_csv_text
from repro.db.datadict import load_data_dictionary, parse_data_dictionary
from repro.db.schema import Database, Table
from repro.db.sql import render_sql
from repro.errors import ReproError
from repro.text.document import Document
from repro.text.htmlparse import parse_html


class ProtocolError(ReproError):
    """Malformed service request (maps to HTTP 400).

    ``reason`` is a stable machine-readable code surfaced alongside the
    human-readable message in error bodies.
    """

    def __init__(self, message: str, reason: str = "bad_request") -> None:
        super().__init__(message)
        self.reason = reason


#: Hard cap on POST bodies, enforced before any bytes are buffered.
#: Inline ``tables`` CSV text is a supported field, so bodies can be
#: legitimately large — but a body must never be allowed to exhaust
#: server memory before validation even runs.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Bounds on inline tables from untrusted clients — tighter than the
#: library-wide :data:`repro.db.csvio.DEFAULT_CSV_LIMITS`, which governs
#: operator-provided server-side files.
SERVICE_CSV_LIMITS = CsvLimits(
    max_rows=250_000, max_columns=256, max_field_bytes=65_536
)

#: Maximum inline tables per request (each one is hashed, typed, and
#: indexed; an attacker must not get unbounded work from one body).
MAX_INLINE_TABLES = 32

#: Maximum detected claims per document. Claims are verified jointly and
#: each claim fans out into a candidate space, so claim count is the
#: document-side cost multiplier.
MAX_CLAIMS_PER_DOCUMENT = 256


def enforce_claim_limit(n_claims: int) -> None:
    """Reject documents with more claims than the service will verify."""
    if n_claims > MAX_CLAIMS_PER_DOCUMENT:
        raise ProtocolError(
            f"document has {n_claims} claims, over the limit of "
            f"{MAX_CLAIMS_PER_DOCUMENT}",
            reason="too_many_claims",
        )


#: Accepted POST /check body keys. Exactly these — aliases and dataclass
#: field names are rejected so no request data is ever silently ignored.
_WIRE_FIELDS = frozenset(
    {
        "csv", "tables", "database", "article", "article_path", "title",
        "data_dict", "data_dict_path", "incremental", "database_name",
    }
)


@dataclass(frozen=True)
class CheckRequest:
    """One parsed POST /check body."""

    #: Server-side CSV paths, loaded in order (table name = file stem).
    csv_paths: tuple[str, ...] = ()
    #: Inline tables: (table name, CSV text) pairs, loaded after paths.
    inline_tables: tuple[tuple[str, str], ...] = ()
    #: Content fingerprint of a database a prior request registered
    #: (mutually exclusive with ``csv``/``tables``/data dictionaries).
    database: str | None = None
    #: Inline article content (HTML subset or plain text).
    article: str | None = None
    #: Server-side article path (alternative to ``article``).
    article_path: str | None = None
    #: Document title used for inline plain-text articles.
    title: str = "document"
    #: Server-side data-dictionary path (column,description CSV).
    data_dict_path: str | None = None
    #: Inline data dictionary text (alternative to ``data_dict_path``).
    data_dict: str | None = None
    #: Opt out of the incremental re-check tier for this request.
    incremental: bool = True
    database_name: str = "service"

    @classmethod
    def from_json(cls, payload: object) -> "CheckRequest":
        """Validate and parse a decoded JSON body."""
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(payload) - _WIRE_FIELDS
        if unknown:
            raise ProtocolError(f"unknown request fields: {sorted(unknown)}")

        csv_paths = payload.get("csv", [])
        if isinstance(csv_paths, str):
            csv_paths = [csv_paths]
        if not isinstance(csv_paths, list) or not all(
            isinstance(p, str) for p in csv_paths
        ):
            raise ProtocolError("'csv' must be a path or list of paths")

        raw_tables = payload.get("tables", {})
        if not isinstance(raw_tables, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in raw_tables.items()
        ):
            raise ProtocolError("'tables' must map table names to CSV text")
        if len(raw_tables) > MAX_INLINE_TABLES:
            raise ProtocolError(
                f"request has {len(raw_tables)} inline tables, over the "
                f"limit of {MAX_INLINE_TABLES}",
                reason="too_many_tables",
            )
        inline_tables = tuple(sorted(raw_tables.items()))

        database = _optional_str(payload, "database")
        if database is not None:
            conflicting = [
                key
                for key in ("csv", "tables", "data_dict", "data_dict_path")
                if payload.get(key)
            ]
            if conflicting:
                raise ProtocolError(
                    "'database' (fingerprint reference) excludes "
                    f"{conflicting}: the referenced checker already pins "
                    "its data and dictionary"
                )
        elif not csv_paths and not inline_tables:
            raise ProtocolError(
                "request needs 'csv' paths, inline 'tables', or a "
                "'database' fingerprint reference"
            )

        article = _optional_str(payload, "article")
        article_path = _optional_str(payload, "article_path")
        if (article is None) == (article_path is None):
            raise ProtocolError(
                "request needs exactly one of 'article' and 'article_path'"
            )

        incremental = payload.get("incremental", True)
        if not isinstance(incremental, bool):
            raise ProtocolError("'incremental' must be a boolean")

        return cls(
            csv_paths=tuple(csv_paths),
            inline_tables=inline_tables,
            database=database,
            article=article,
            article_path=article_path,
            title=_optional_str(payload, "title") or "document",
            data_dict_path=_optional_str(payload, "data_dict_path"),
            data_dict=_optional_str(payload, "data_dict"),
            incremental=incremental,
            database_name=_optional_str(payload, "database_name") or "service",
        )

    def load_database(self) -> Database:
        """Materialize the referenced tables into a Database.

        Server-side ``csv`` paths are operator-provided and load under
        the library defaults; inline tables come from the client and are
        bounded by :data:`SERVICE_CSV_LIMITS`.
        """
        tables: list[Table] = [load_csv(path) for path in self.csv_paths]
        tables.extend(
            load_csv_text(text, name, SERVICE_CSV_LIMITS)
            for name, text in self.inline_tables
        )
        return Database(self.database_name, tables)

    def load_dictionary(self) -> dict[str, str] | None:
        if self.data_dict is not None:
            return parse_data_dictionary(self.data_dict)
        if self.data_dict_path is not None:
            return load_data_dictionary(self.data_dict_path)
        return None

    def load_document(self) -> Document:
        if self.article_path is not None:
            path = Path(self.article_path)
            return parse_article(
                path.read_text(encoding="utf-8-sig"), path.stem
            )
        assert self.article is not None
        return parse_article(self.article, self.title)


def data_spec(request: CheckRequest) -> dict:
    """The JSON-serializable *data* half of a request.

    Journaled with every queue job (and kept in the service's reference
    registry) so a restarted server can rebuild the database, dictionary,
    and checker for a job whose original request is long gone. Inline
    table text is carried verbatim; ``csv``/``data_dict`` paths stay
    paths — they are server-side files by contract.
    """
    return {
        "csv": list(request.csv_paths),
        "tables": dict(request.inline_tables),
        "data_dict": request.data_dict,
        "data_dict_path": request.data_dict_path,
        "database_name": request.database_name,
    }


def spec_request(
    source: dict, article: str, title: str
) -> CheckRequest:
    """Rebuild the :class:`CheckRequest` a journaled job was admitted as."""
    return CheckRequest(
        csv_paths=tuple(source.get("csv") or ()),
        inline_tables=tuple(sorted((source.get("tables") or {}).items())),
        article=article,
        title=title,
        data_dict=source.get("data_dict"),
        data_dict_path=source.get("data_dict_path"),
        database_name=source.get("database_name") or "service",
    )


def _optional_str(payload: dict, key: str) -> str | None:
    value = payload.get(key)
    if value is not None and not isinstance(value, str):
        raise ProtocolError(f"{key!r} must be a string")
    return value


def parse_article(text: str, title: str) -> Document:
    """HTML-or-plain-text sniffing, identical to the ``check`` CLI."""
    if "<" in text and ">" in text:
        return parse_html(text)
    paragraphs = [p for p in text.split("\n\n") if p.strip()]
    return Document.from_plain_text(title, paragraphs)


def verdict_payload(verdict: ClaimVerdict) -> dict:
    """The canonical JSON shape of one claim verdict.

    Shared by ``python -m repro check --json`` and the service's claim
    events: any divergence between one-shot and served verdicts is a
    payload diff, not a formatting artifact.
    """
    payload = {
        "text": verdict.claim.mention.text,
        "sentence": verdict.claim.sentence.text,
        "claimed_value": verdict.claim.claimed_value,
        "status": verdict.status.value,
        "top_query": (
            render_sql(verdict.top_query) if verdict.top_query else None
        ),
        "top_result": verdict.top_result,
        "probability_correct": round(verdict.probability_correct, 4),
    }
    # Only present when set: undegraded payloads stay byte-identical to
    # every release before degradation existed.
    if verdict.degraded is not None:
        payload["degraded"] = verdict.degraded
    return payload


def payload_crc(payload: dict) -> int:
    """CRC32 of a verdict payload's canonical JSON encoding.

    Canonical = sorted keys, no whitespace, ``default=str`` for the odd
    non-JSON value (inf/nan round-trip via repr). The incremental memo
    tier stores this next to each cached payload and re-verifies it on
    every hit, so an in-memory bit flip (or any post-store mutation of a
    shared payload dict) is detected and degrades to a recompute instead
    of serving a corrupted verdict.
    """
    body = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return zlib.crc32(body.encode("utf-8", "surrogatepass"))


def claim_event(index: int, payload: dict, cached: bool) -> dict:
    return {"event": "claim", "index": index, "cached": cached, "claim": payload}


def error_event(message: str) -> dict:
    return {"event": "error", "error": message}


def encode_event(event: dict) -> bytes:
    """One NDJSON frame: a complete JSON object terminated by ``\\n``."""
    return (json.dumps(event, separators=(",", ":")) + "\n").encode("utf-8")
