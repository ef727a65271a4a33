"""The HTTP client's retry schedule.

:class:`RetryPolicy` is the bounded exponential backoff (with
decorrelated jitter) that :class:`~repro.service.client.ServiceClient`
sleeps between attempts after a ``429`` or a dropped connection. The
server retries nothing: a queued group runs once. It lives here because
the end-to-end benchmark imports it from ``repro.harness.parallel``;
moving it means changing the benchmark in the same commit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff plus decorrelated jitter.

    ``max_attempts`` counts the original attempt plus retries: the default
    of 3 gives a request two retries before the client gives up.
    :meth:`backoff_seconds` is the
    deterministic exponential schedule (the reproducible floor tests pin
    down); :meth:`sleep_seconds` layers *decorrelated jitter* on top —
    uniform in ``[base, min(cap, 3 * previous sleep)]`` — so many
    clients honoring 429s from the same server decorrelate instead of
    thundering back in lockstep. The jittered value is always within
    ``[backoff_seconds(1), backoff_cap]``.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def backoff_seconds(self, retry_ordinal: int) -> float:
        """Deterministic sleep before the ``retry_ordinal``-th retry (1-based)."""
        return min(
            self.backoff_cap,
            self.backoff_base * (2 ** (retry_ordinal - 1)),
        )

    def sleep_seconds(
        self,
        retry_ordinal: int,
        previous: float | None = None,
        rng: "random.Random | None" = None,
    ) -> float:
        """Decorrelated-jitter sleep before the next retry.

        ``previous`` is the sleep used before the prior retry (None for
        the first): the next sleep is drawn uniformly from
        ``[backoff_base, min(cap, 3 * previous)]``, the AWS
        "decorrelated jitter" recipe — successive retries spread out over
        an exponentially growing window instead of synchronizing on the
        deterministic schedule. Pass a seeded ``rng`` for reproducible
        tests; the module default is shared process-wide.
        """
        generator = rng if rng is not None else random
        if previous is None or previous <= 0:
            previous = self.backoff_base
        ceiling = min(self.backoff_cap, 3.0 * previous)
        floor = min(self.backoff_base, ceiling)
        jittered = generator.uniform(floor, ceiling)
        # Never sleep less than the deterministic first-step floor, never
        # more than the cap — the bounds tests rely on.
        return min(self.backoff_cap, max(jittered, floor))
