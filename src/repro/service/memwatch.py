"""Memory-pressure watchdog: RSS sampling that sheds before the OOM killer.

Space budgets bound *per-request* work, but a process serves many
requests; their aggregate footprint (pooled checkers, cube caches,
journal state) can still creep toward the container limit, where the
kernel's OOM killer ends the story without a stack trace. The watchdog
samples resident-set size from ``/proc/self/statm`` (stdlib-only, no
dependencies) on a background thread and, while RSS is over
``max_rss_mb``, raises its :attr:`~MemoryWatchdog.shedding` flag — the
one shed signal the worker pool's
:class:`~repro.service.workers.GroupExecutor` reads: leased job groups
take the shed path (explicit unverifiable verdicts marked
``"degraded": "shed"``, no checker call) and the queue keeps draining
without allocating, while ``/health`` reports the pressure. When RSS drops back under the
threshold (with hysteresis, so shedding does not flap at the boundary)
the flag clears and normal execution resumes.

On platforms without ``/proc`` the watchdog is inert: sampling returns
None, the flag is never raised, and health reports RSS as unavailable.
"""

from __future__ import annotations

import os
import threading

#: Stop shedding only once RSS drops below this share of
#: the limit — flapping at the threshold would alternate verdict quality
#: request by request.
_RELEASE_SHARE = 0.9

_STATM_PATH = "/proc/self/statm"


def read_rss_mb() -> float | None:
    """Resident-set size in MiB, or None where ``/proc`` is unavailable."""
    try:
        with open(_STATM_PATH, "rb") as statm:
            fields = statm.read().split()
        pages = int(fields[1])
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return pages * page_size / (1024 * 1024)


class MemoryWatchdog:
    """Samples RSS and sheds execution while it is past ``max_rss_mb``."""

    def __init__(
        self, max_rss_mb: float, interval_seconds: float = 1.0
    ) -> None:
        if max_rss_mb <= 0:
            raise ValueError(f"max_rss_mb must be > 0, got {max_rss_mb}")
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        self.max_rss_mb = max_rss_mb
        self.interval_seconds = interval_seconds
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._shedding = False
        self._last_rss_mb: float | None = None
        self.samples = 0
        self.trips = 0

    @property
    def shedding(self) -> bool:
        """True while RSS is over the limit (and not yet back under 90%)."""
        with self._lock:
            return self._shedding

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="memory-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample_once()
            self._stop.wait(self.interval_seconds)

    def sample_once(self) -> float | None:
        """One sampling step (exposed for deterministic tests)."""
        rss = read_rss_mb()
        with self._lock:
            self.samples += 1
            self._last_rss_mb = rss
            if rss is None:
                return None
            if not self._shedding and rss > self.max_rss_mb:
                self._shedding = True
                self.trips += 1
            elif self._shedding and rss < self.max_rss_mb * _RELEASE_SHARE:
                self._shedding = False
        return rss

    def stats(self) -> dict:
        """The ``memory`` block of ``/health``."""
        with self._lock:
            rss = self._last_rss_mb
            return {
                "rss_mb": round(rss, 1) if rss is not None else None,
                "max_rss_mb": self.max_rss_mb,
                "shedding": self._shedding,
                "samples": self.samples,
                "trips": self.trips,
            }
