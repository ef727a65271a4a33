"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base type. Substrate-specific subclasses carry enough context to
diagnose misuse (unknown columns, cyclic schemas, malformed queries, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """Invalid schema definition (duplicate names, bad references, ...)."""


class UnknownTableError(SchemaError):
    """A referenced table does not exist in the database."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in its table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column: {table!r}.{column!r}")
        self.table = table
        self.column = column


class CyclicSchemaError(SchemaError):
    """The foreign-key graph contains a cycle (paper assumes acyclicity)."""


class JoinPathError(ReproError):
    """No foreign-key join path connects the requested tables."""


class QueryError(ReproError):
    """Malformed Simple Aggregate Query."""


class SqlParseError(QueryError):
    """The SQL text could not be parsed as a Simple Aggregate Query."""


class CsvFormatError(ReproError):
    """A CSV source could not be loaded into a table.

    ``reason`` is a stable machine-readable code (``csv_format``,
    ``too_many_rows``, ``too_many_columns``, ``field_too_large``, ...)
    that the service layer surfaces in structured 400 responses.
    """

    def __init__(self, message: str, reason: str = "csv_format") -> None:
        super().__init__(message)
        self.reason = reason


class DataDictionaryError(ReproError):
    """A data dictionary file could not be parsed."""


class DocumentError(ReproError):
    """Malformed input document (bad HTML nesting, empty text, ...)."""


class CorpusError(ReproError):
    """Corpus generation failed or was configured inconsistently."""


class CheckerError(ReproError):
    """The AggChecker pipeline was driven incorrectly."""


class DeadlineExceeded(ReproError):
    """A claim-execution deadline expired at a pipeline stage boundary.

    Carries the stage where the budget ran out; the checker catches this
    to walk its degradation ladder instead of failing the document.
    """

    def __init__(self, stage: str, budget_seconds: float) -> None:
        super().__init__(
            f"deadline of {budget_seconds:.3f}s exceeded at stage {stage!r}"
        )
        self.stage = stage
        self.budget_seconds = budget_seconds


class BudgetExceeded(ReproError):
    """A space budget would be exceeded at a pipeline stage boundary.

    Unlike :class:`DeadlineExceeded` (which fires *after* time is spent),
    this fires *before* materialization: the engine estimates the size of
    a cube result, join, or candidate space and refuses to build it when
    the estimate crosses the configured limit. The checker catches this
    to walk the same degradation ladder as deadline expiry.
    """

    def __init__(
        self, kind: str, stage: str, limit: int, estimate: int
    ) -> None:
        super().__init__(
            f"{kind} budget of {limit} exceeded at stage {stage!r} "
            f"(estimated {estimate})"
        )
        self.kind = kind
        self.stage = stage
        self.limit = limit
        self.estimate = estimate


class AdmissionRejectedError(ReproError):
    """A request's estimated cost exceeds the admission limit (HTTP 413).

    Raised by the queue service *before* work reaches the durable queue:
    cost = tables x rows x claims, a deliberately coarse upper bound on
    the work a request can demand. Carries the machine-readable pieces
    the HTTP front end surfaces in its JSON error body.
    """

    def __init__(self, cost: int, max_cost: int) -> None:
        super().__init__(
            f"estimated request cost {cost} exceeds admission limit "
            f"{max_cost}"
        )
        self.cost = cost
        self.max_cost = max_cost


class InjectedFault(ReproError):
    """Raised by an armed fault-injection point (testing only)."""

    def __init__(self, point: str, key: str) -> None:
        super().__init__(f"injected fault at {point!r} (key {key!r})")
        self.point = point
        self.key = key


class RateLimitedError(ReproError):
    """A client exceeded its token-bucket rate limit (maps to HTTP 429)."""

    def __init__(self, client: str, retry_after_seconds: float) -> None:
        super().__init__(
            f"client {client!r} is rate limited; retry in "
            f"~{retry_after_seconds:.1f}s"
        )
        self.client = client
        self.retry_after_seconds = retry_after_seconds


class StreamInterruptedError(ReproError):
    """An NDJSON response stream ended before its terminal event.

    The wire protocol is HTTP/1.0 with close-delimited bodies, so a
    server crash mid-stream is indistinguishable from normal end-of-body
    at the socket layer; completeness is judged by content — the last
    event must be a ``summary`` (or a request-level ``error``). Carries
    the events received so far so callers can salvage partial verdicts.
    """

    def __init__(self, message: str, events: list | None = None) -> None:
        super().__init__(message)
        self.events = events if events is not None else []


class QueueFullError(ReproError):
    """The durable job queue is at capacity (maps to HTTP 429).

    Carries a depth-aware ``retry_after_seconds`` estimate that the HTTP
    front end surfaces as a ``Retry-After`` header.
    """

    def __init__(self, capacity: int, retry_after_seconds: float) -> None:
        super().__init__(
            f"job queue is at capacity ({capacity}); retry in "
            f"~{retry_after_seconds:.0f}s"
        )
        self.capacity = capacity
        self.retry_after_seconds = retry_after_seconds
