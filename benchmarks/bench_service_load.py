"""Queue-backed service under sustained open-loop load, plus a chaos soak.

Drives a live queue-backed ``AsyncVerificationServer`` on a loopback
port — the deployment shape of ``python -m repro serve`` — and writes
``BENCH_service_load.json``:

- ``load``: open-loop arrivals (documents POSTed on a fixed schedule,
  independent of completion — the arrival process never slows down to
  flatter the server) across several databases. Reports sustained
  claims/sec and per-document stream latency p50/p99, and asserts the
  delivery contract: zero lost claims (every stream reaches its summary
  with every claim index present exactly once) and zero duplicated acks.
- ``chaos``: the same workload shape at reduced scale with
  :mod:`repro.faults` armed — workers killed mid-lease (lease-expiry
  recovery), a clean executor failure (nack -> retry), a slow pipeline
  stage, a space-budget blowup (``budget.estimate``), a cost-admission
  refusal (``admission.cost``) — plus ``audit.bitflip`` corruption in
  every stored tier: a cube cell poisoned before its CRC, an
  incremental-memo payload poisoned after its CRC, and a byte flipped in
  the queue journal. The soak passes only if, despite the injected
  failures, every *admitted* job is acked exactly once, the memo and
  journal CRCs catch their corruption, and the offline scrub (``repro
  scrub``'s engine) detects every cube-tier corruption, after which the
  state verifies clean.

The regression gate (``benchmarks/check_regression.py``) tracks the two
``completion_ratio`` values (acked/submitted — hardware-independent and
expected to stay 1.0); throughput and latency are reported for humans
but never gated, since they track runner hardware.

Smoke knobs (CI): ``BENCH_LOAD_DBS``, ``BENCH_LOAD_DOCS``,
``BENCH_LOAD_CLAIMS``, ``BENCH_LOAD_ROWS``, ``BENCH_LOAD_RATE``,
``BENCH_LOAD_WORKERS``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import urllib.error
from pathlib import Path

from bench_service import _claims_of, _env_int, _post_check, _write_article, _write_database_csv

from repro.audit.scrub import scrub_state
from repro.db import Database, load_csv
from repro.faults import FaultSpec, active
from repro.harness.parallel import RetryPolicy
from repro.harness.reporting import format_table
from repro.service import create_async_server
from repro.service.queue import JOURNAL_NAME, scan_journal

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service_load.json"


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


def _build_workload(tmp_path: Path, n_databases: int, docs_per_db: int,
                    claims_per_doc: int, rows: int) -> list[dict]:
    """One POST payload per document, round-robin over the databases."""
    jobs: list[dict] = []
    for db in range(n_databases):
        csv_path = tmp_path / f"records_{db}.csv"
        _write_database_csv(csv_path, rows, seed=300 + db)
        for doc in range(docs_per_db):
            article_path = tmp_path / f"report_{db}_{doc}.html"
            _write_article(
                article_path, db * docs_per_db + doc, claims_per_doc,
                seed=400 + db * docs_per_db + doc,
            )
            jobs.append(
                {"csv": [str(csv_path)], "article_path": str(article_path)}
            )
    return jobs


def _workload_databases(jobs: list[dict]) -> list[Database]:
    """The workload's databases, rebuilt for semantic scrub validation."""
    return [
        Database(Path(csv).stem, [load_csv(csv)])
        for csv in sorted({job["csv"][0] for job in jobs})
    ]


def _open_loop(url: str, jobs: list[dict], rate: float) -> list[dict]:
    """POST each document at its scheduled arrival time; gather results.

    Open-loop means the schedule is fixed up front (arrival k at
    ``k / rate`` seconds): a slow server accumulates queue depth instead
    of slowing the arrival process, which is what exposes admission and
    backpressure behavior.
    """
    interval = 1.0 / max(rate, 1e-6)
    outcomes: list[dict] = [{} for _ in jobs]
    epoch = time.perf_counter()

    def submit(ordinal: int, payload: dict) -> None:
        scheduled = epoch + ordinal * interval
        delay = scheduled - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        started = time.perf_counter()
        try:
            events = _post_check(url, payload)
        except urllib.error.HTTPError as error:
            # A structured admission rejection (413) is an *answered*
            # request, not a lost stream: record it as such so the
            # delivery assertion can count it separately.
            body = error.read()
            error.close()
            if error.code == 413:
                try:
                    detail = json.loads(body)
                except ValueError:
                    detail = {}
                outcomes[ordinal] = {"rejected": error.code, "detail": detail}
            else:
                outcomes[ordinal] = {"error": repr(error)}
            return
        except Exception as error:  # a lost stream is a failed run
            outcomes[ordinal] = {"error": repr(error)}
            return
        outcomes[ordinal] = {
            "events": events,
            # Latency from *scheduled* arrival: queue wait included.
            "latency": time.perf_counter() - max(scheduled, epoch),
            "started": started,
        }

    threads = [
        threading.Thread(target=submit, args=(ordinal, payload))
        for ordinal, payload in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
    return outcomes


def _assert_delivery(
    outcomes: list[dict], claims_per_doc: int, max_rejected: int = 0
) -> tuple[int, int]:
    """Zero lost / zero duplicated, per stream.

    Streams the admission layer rejected with a structured 413 are
    counted (up to ``max_rejected``) rather than treated as lost: a
    refusal the client can read is the governance contract working, not
    a delivery failure. Returns ``(total_claims, rejected_streams)``.
    """
    total = 0
    rejected = 0
    for ordinal, outcome in enumerate(outcomes):
        if outcome.get("rejected") == 413:
            rejected += 1
            continue
        assert "events" in outcome, (ordinal, outcome.get("error"))
        events = outcome["events"]
        summary = events[-1]
        assert summary["event"] == "summary", (ordinal, summary)
        assert summary["errors"] == 0, (ordinal, summary)
        indexes = [e["index"] for e in events if e["event"] == "claim"]
        # Every claim exactly once: nothing lost, nothing duplicated.
        assert sorted(indexes) == list(range(claims_per_doc)), (
            ordinal, indexes,
        )
        for claim in _claims_of(events):
            assert claim["status"], (ordinal, claim)
        total += len(indexes)
    assert rejected <= max_rejected, (rejected, max_rejected)
    return total, rejected


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    position = min(
        len(sorted_values) - 1, round(q * (len(sorted_values) - 1))
    )
    return sorted_values[position]


def _fired(state_dir: Path, spec: FaultSpec) -> int:
    """How many times ``spec`` fired, from its cross-process markers."""
    digest = hashlib.sha256(spec.encode().encode("utf-8")).hexdigest()[:16]
    return len(list(Path(state_dir).glob(f"{digest}.*")))


def _merge_output(section: str, payload: dict) -> dict:
    """Update one section of BENCH_service_load.json, keeping the other."""
    merged = {
        "benchmark": "queue-backed service: open-loop load + chaos soak",
        "cpu_count": os.cpu_count() or 1,
    }
    if OUTPUT.exists():
        try:
            previous = json.loads(OUTPUT.read_text())
        except (OSError, ValueError):
            previous = {}
        for key in ("load", "chaos"):
            if key in previous:
                merged[key] = previous[key]
    merged[section] = payload
    OUTPUT.write_text(json.dumps(merged, indent=2) + "\n")
    return merged


def _run_load_pass(
    jobs: list[dict], claims_per_doc: int, rate: float, workers: int
) -> dict:
    """One open-loop pass on a fresh server; returns its measurements."""
    server = create_async_server(
        port=0,
        workers=workers,
        queue_capacity=max(256, len(jobs) * claims_per_doc),
        visibility_timeout=120.0,
    )
    server.start_in_thread()
    try:
        wall_started = time.perf_counter()
        outcomes = _open_loop(server.url, jobs, rate)
        wall = time.perf_counter() - wall_started
        stats = server.service.stats()
    finally:
        server.shutdown_gracefully()

    total_claims, rejected = _assert_delivery(outcomes, claims_per_doc)
    assert rejected == 0, "no admission faults armed in the load leg"
    queue = stats["queue"]
    assert queue["acked"] == queue["enqueued"], queue   # zero lost
    assert queue["duplicate_acks"] == 0, queue          # zero duplicated
    assert queue["deadlettered"] == 0, queue
    assert stats["workers"]["worker_deaths"] == 0, stats["workers"]
    return {
        "outcomes": outcomes,
        "queue": queue,
        "wall": wall,
        "claims_per_sec": total_claims / max(wall, 1e-9),
    }


def test_service_open_loop_load(capsys, tmp_path):
    n_databases = _env_int("BENCH_LOAD_DBS", 2)
    docs_per_db = _env_int("BENCH_LOAD_DOCS", 4)
    claims_per_doc = _env_int("BENCH_LOAD_CLAIMS", 6)
    rows = _env_int("BENCH_LOAD_ROWS", 600)
    rate = _env_float("BENCH_LOAD_RATE", 4.0)
    workers = _env_int("BENCH_LOAD_WORKERS", 4)

    jobs = _build_workload(
        tmp_path, n_databases, docs_per_db, claims_per_doc, rows
    )
    run = _run_load_pass(jobs, claims_per_doc, rate, workers)

    queue = run["queue"]
    submitted = queue["enqueued"]
    latencies = sorted(o["latency"] for o in run["outcomes"])
    total_claims = round(run["claims_per_sec"] * run["wall"])
    results = {
        "databases": n_databases,
        "documents": len(jobs),
        "claims_per_doc": claims_per_doc,
        "rows_per_database": rows,
        "arrival_rate_docs_per_sec": rate,
        "workers": workers,
        "submitted_jobs": submitted,
        "acked_jobs": queue["acked"],
        "duplicate_acks": queue["duplicate_acks"],
        "completion_ratio": round(queue["acked"] / max(submitted, 1), 4),
        "claims_per_sec": round(run["claims_per_sec"], 2),
        "p50_seconds": round(_percentile(latencies, 0.50), 4),
        "p99_seconds": round(_percentile(latencies, 0.99), 4),
        "wall_seconds": round(run["wall"], 4),
    }
    _merge_output("load", results)

    with capsys.disabled():
        print(
            "\n"
            + format_table(
                "Queue-backed service: open-loop load",
                ["Metric", "Value"],
                [
                    ["documents", str(len(jobs))],
                    ["claims", str(total_claims)],
                    ["claims/s", f"{results['claims_per_sec']:.1f}"],
                    ["p50", f"{results['p50_seconds']:.3f}s"],
                    ["p99", f"{results['p99_seconds']:.3f}s"],
                    ["completion", f"{results['completion_ratio']:.4f}"],
                ],
            )
        )
        print(f"written: {OUTPUT}")


def test_service_chaos_soak(capsys, tmp_path):
    """The same load with failures injected: nothing lost, nothing doubled,
    nothing silently wrong.

    Armed faults (see :mod:`repro.faults`): two workers die mid-lease
    (``queue.lease``/``raise`` — no ack, no nack; recovery is lease
    expiry + re-delivery by a respawned worker), one clean executor
    failure (``queue.exec``/``raise`` — nack -> jittered retry), one slow
    matching stage (``checker.stage``/``sleep``), one space-budget
    blowup (``budget.estimate``/``raise`` — one cube execution reports an
    over-budget estimate; the checker ladder must degrade that document's
    verdicts instead of crashing the worker), one admission rejection
    (``admission.cost``/``raise`` — one document refused with a
    structured 413 before it ever enqueues), and the ``audit.bitflip``
    corruptions: one incremental-memo payload poisoned *after* its CRC
    (the next hit must self-detect and recompute), and one byte flipped
    in the durable queue journal (caught by the per-record CRC scan over
    a pre-compaction snapshot). The cube tier is corrupted post-drain —
    one cell poisoned before its CRC (semantic) and one byte flipped in a
    stored file (structural) — and the offline scrub (the engine behind
    ``python -m repro scrub``) must detect both, quarantine them, and
    leave the state verifiably clean.
    """
    n_databases = _env_int("BENCH_LOAD_CHAOS_DBS", 1)
    docs_per_db = _env_int("BENCH_LOAD_CHAOS_DOCS", 3)
    claims_per_doc = _env_int("BENCH_LOAD_CHAOS_CLAIMS", 4)
    rows = _env_int("BENCH_LOAD_ROWS", 600)
    rate = _env_float("BENCH_LOAD_RATE", 4.0)

    jobs = _build_workload(
        tmp_path, n_databases, docs_per_db, claims_per_doc, rows
    )
    queue_dir = tmp_path / "queue"
    cache_dir = tmp_path / "cube-cache"
    from repro.core.config import AggCheckerConfig

    server = create_async_server(
        port=0,
        config=AggCheckerConfig().with_engine(cache_dir=cache_dir),
        queue_dir=queue_dir,
        queue_capacity=256,
        workers=2,
        visibility_timeout=1.0,
        retry=RetryPolicy(max_attempts=6, backoff_base=0.05, backoff_cap=0.2),
    )
    server.start_in_thread()
    specs = (
        FaultSpec("queue.lease", "raise", times=2),
        FaultSpec("queue.exec", "raise", times=1),
        FaultSpec("checker.stage", "sleep", match="match",
                  seconds=0.3, times=1),
        FaultSpec("budget.estimate", "raise", times=1),
        FaultSpec("admission.cost", "raise", times=1),
        # The integrity tier: one journal flip. The memo poison is armed
        # on its own resubmission pass below, so the entry it poisons is
        # read back by the next pass; the cube-tier corruptions are
        # planted after drain.
        FaultSpec("audit.bitflip", "bitflip", match="journal", times=1),
    )
    memo_spec = FaultSpec("audit.bitflip", "raise", match="memo:*", times=1)

    def resubmit_all() -> None:
        for payload in jobs:
            try:
                _post_check(server.url, payload)
            except urllib.error.HTTPError as error:
                error.close()  # the one admission-refused doc, if re-shed

    try:
        with active(*specs) as state_dir:
            wall_started = time.perf_counter()
            outcomes = _open_loop(server.url, jobs, rate)
            wall = time.perf_counter() - wall_started
            fired = {
                f"{spec.point}:{spec.match}": _fired(state_dir, spec)
                for spec in specs
            }
        # First resubmission pass: acked claims serve from the memo, the
        # soak's degraded claims recompute at full quality — and the memo
        # fault poisons one of those fresh verdicts after its CRC was
        # taken.
        with active(memo_spec) as memo_state:
            resubmit_all()
            fired[f"{memo_spec.point}:{memo_spec.match}"] = _fired(
                memo_state, memo_spec
            )
        # Second resubmission pass, nothing armed: the poisoned memo
        # entry must fail its CRC on the hit, degrade to a miss, and
        # recompute.
        resubmit_all()
        stats = server.service.stats()
        # Snapshot the journal *before* drain: close() compacts (rewrites)
        # it, which would scrub away the injected flip.
        journal_snapshot = tmp_path / "journal.snapshot"
        journal_snapshot.write_bytes((queue_dir / JOURNAL_NAME).read_bytes())
    finally:
        server.shutdown_gracefully()

    total_claims, rejected = _assert_delivery(
        outcomes, claims_per_doc, max_rejected=1
    )
    queue = stats["queue"]
    submitted = queue["enqueued"]
    # The acceptance contract of the chaos soak: at-least-once execution
    # converged to exactly-once delivery despite injected worker deaths.
    assert queue["acked"] == submitted, queue          # zero lost
    assert queue["duplicate_acks"] == 0, queue         # zero duplicated
    assert queue["deadlettered"] == 0, queue
    assert stats["workers"]["worker_deaths"] >= 2, stats["workers"]
    assert queue["expired_leases"] >= 1, queue
    # Resource-governance faults: the admission fault refused exactly one
    # document with a machine-readable 413 before it enqueued, and the
    # budget fault degraded (not crashed) at least one delivered claim.
    assert rejected == 1, [o for o in outcomes if "events" not in o]
    [refusal] = [o for o in outcomes if o.get("rejected") == 413]
    assert refusal["detail"].get("reason") == "cost_exceeded", refusal
    assert stats["admission"]["rejected_cost"] == 1, stats["admission"]
    degraded_claims = sum(
        1
        for outcome in outcomes
        if "events" in outcome
        for claim in _claims_of(outcome["events"])
        if claim.get("degraded")
    )
    assert degraded_claims >= 1, "budget fault should degrade one stream"

    # --- integrity: the poisoned memo entry self-detected on its next
    # hit (CRC mismatch -> counted -> recomputed) during the resubmission
    # pass.
    assert fired["audit.bitflip:memo:*"] == 1, fired
    assert stats["incremental"]["corrupted"] >= 1, stats["incremental"]

    # --- integrity: the journal flip is caught by the per-record CRC
    # scan of the pre-compaction snapshot.
    assert fired["audit.bitflip:journal"] == 1, fired
    journal_scan = scan_journal(journal_snapshot)
    journal_detected = journal_scan["corrupt"] + int(journal_scan["truncated"])
    assert journal_detected >= 1, journal_scan

    # --- integrity: the cube tier, post-drain. The cache directory holds
    # every cube the soak stored; two more entries are written offline
    # and both corruption classes are planted: one cell poisoned *before*
    # its CRC (semantic — invisible to any framing check, only the
    # scrub's recompute can see it) and one byte flipped in a stored file
    # (structural — the per-entry CRC catches it). The first scrub
    # recomputes the soak's entries too, so exactly one mismatch says
    # each of them is bit-exact. After quarantine the state must verify
    # clean end to end.
    from repro.db import EngineConfig, QueryEngine, parse_query

    databases = _workload_databases(jobs)
    # The probe copies the first table under another name, hence another
    # database fingerprint: its entries are written fresh even where the
    # soak already stored the same cubes.
    probe_db = Database(
        "probe", [load_csv(sorted(job["csv"][0] for job in jobs)[0], "probe")]
    )
    databases.append(probe_db)
    first_row = probe_db.tables[0].rows[0]
    table = probe_db.tables[0].name
    cell_spec = FaultSpec("audit.bitflip", "raise", match="cell:*", times=1)
    with active(cell_spec):
        QueryEngine(probe_db, EngineConfig(cache_dir=cache_dir)).evaluate(
            [parse_query(
                f"SELECT Count(*) FROM {table} "
                f"WHERE category = '{first_row[2]}'",
                probe_db,
            )]
        )
    # A second entry on a different dimension (hence a different cube
    # key and file): the structurally-flipped victim below.
    QueryEngine(probe_db, EngineConfig(cache_dir=cache_dir)).evaluate(
        [parse_query(
            f"SELECT Count(*) FROM {table} "
            f"WHERE category = '{first_row[2]}' AND beta = '{first_row[1]}'",
            probe_db,
        )]
    )
    scrub_first = scrub_state(cache_dir=cache_dir, databases=databases)
    [cube_first] = [
        t for t in scrub_first["tiers"] if t["tier"] == "disk_cache"
    ]
    semantic_detected = cube_first["semantic_mismatch"]
    assert semantic_detected == 1, cube_first

    survivor = sorted(cache_dir.glob("*.cube"))[0]
    blob = bytearray(survivor.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    survivor.write_bytes(bytes(blob))
    scrub_second = scrub_state(
        cache_dir=cache_dir, queue_dir=queue_dir, databases=databases
    )
    assert scrub_second["corrupt_total"] >= 1, scrub_second
    scrub_final = scrub_state(
        cache_dir=cache_dir, queue_dir=queue_dir, databases=databases
    )
    assert scrub_final["clean"], scrub_final

    results = {
        "databases": n_databases,
        "documents": len(jobs),
        "claims_per_doc": claims_per_doc,
        "submitted_jobs": submitted,
        "acked_jobs": queue["acked"],
        "duplicate_acks": queue["duplicate_acks"],
        "completion_ratio": round(queue["acked"] / max(submitted, 1), 4),
        "worker_deaths": stats["workers"]["worker_deaths"],
        "expired_leases": queue["expired_leases"],
        "retried": queue["retried"],
        "deadlettered": queue["deadlettered"],
        "admission_rejected": rejected,
        "degraded_claims": degraded_claims,
        "memo_corruption_detected": stats["incremental"]["corrupted"],
        "journal_corruption_detected": journal_detected,
        "semantic_corruption_detected": semantic_detected,
        "scrub_corrupt_detected": scrub_first["corrupt_total"]
        + scrub_second["corrupt_total"],
        "scrub_final_clean": scrub_final["clean"],
        "claims_per_sec": round(total_claims / max(wall, 1e-9), 2),
        "wall_seconds": round(wall, 4),
    }
    _merge_output("chaos", results)

    with capsys.disabled():
        print(
            "\n"
            + format_table(
                "Queue-backed service: chaos soak",
                ["Metric", "Value"],
                [
                    ["documents", str(len(jobs))],
                    ["worker deaths", str(results["worker_deaths"])],
                    ["retries", str(results["retried"])],
                    ["lost", str(submitted - queue["acked"])],
                    ["duplicated", str(queue["duplicate_acks"])],
                    ["413 refusals", str(rejected)],
                    ["degraded claims", str(degraded_claims)],
                    ["corruption detected",
                     str(results["scrub_corrupt_detected"]
                         + journal_detected
                         + results["memo_corruption_detected"])],
                    ["final scrub clean", str(scrub_final["clean"])],
                    ["completion", f"{results['completion_ratio']:.4f}"],
                ],
            )
        )
        print(f"written: {OUTPUT}")
