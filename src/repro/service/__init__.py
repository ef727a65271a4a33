"""Verification service layer: the AggChecker as a resident process.

``python -m repro serve`` exposes the verification pipeline over HTTP
with a warm checker pool, streamed NDJSON verdicts, an incremental
re-check tier, and a durable queue-backed core (see ARCHITECTURE.md,
"Service layer" and "Queue & delivery semantics")::

    from repro.service import ServiceClient, create_async_server

    server = create_async_server(port=0)
    url = server.start_in_thread()
    try:
        events = ServiceClient(url).check(
            {"csv": ["data.csv"], "article": "Four of the five ..."}
        )
    finally:
        server.shutdown_gracefully()
"""

from repro.service.aio import (
    AsyncVerificationServer,
    QueueService,
    create_async_server,
)
from repro.service.client import ServiceClient
from repro.service.incremental import (
    IncrementalCache,
    IncrementalStats,
    config_fingerprint,
    scope_fingerprint,
)
from repro.service.protocol import (
    CheckRequest,
    ProtocolError,
    encode_event,
    parse_article,
    verdict_payload,
)
from repro.service.queue import DurableJobQueue
from repro.service.ratelimit import ClientRateLimiter
from repro.service.warm import VerificationService
from repro.service.workers import WorkerPool

__all__ = [
    "AsyncVerificationServer",
    "CheckRequest",
    "ClientRateLimiter",
    "DurableJobQueue",
    "IncrementalCache",
    "IncrementalStats",
    "ProtocolError",
    "QueueService",
    "ServiceClient",
    "VerificationService",
    "WorkerPool",
    "config_fingerprint",
    "create_async_server",
    "encode_event",
    "parse_article",
    "scope_fingerprint",
    "verdict_payload",
]
