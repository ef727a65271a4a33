"""Verification-service throughput: cold vs warm pool vs incremental tier.

Drives a live server on a loopback port — ``create_async_server``, the
front end of ``python -m repro serve`` — through the request ladder an
editing loop produces, and writes ``BENCH_service.json``:

- ``cold``: first request per database on a fresh service. Pays full
  startup: fragment extraction, index compilation, cube execution.
- ``warm``: the same documents re-checked with the incremental tier
  declined (``"incremental": false``) — isolates the warm
  ``CheckerPool`` (compiled index + in-memory result cache reuse).
- ``incremental``: the same documents re-checked through the memo tier —
  every claim served from the (database fingerprint, claim fingerprint,
  config fingerprint) cache without touching the engine. One round takes
  milliseconds, so each sample times back-to-back rounds for at least
  ``MIN_SAMPLE_SECONDS`` and divides.
- ``incremental_edit``: one sentence edited per document — exactly one
  claim re-evaluated per request, the rest cached.

Verdict identity is asserted before any number is reported: every tier's
per-claim payloads must be bit-identical to ``python -m repro check
--json`` on the same CSV/article files. Gates: the warm path must beat
cold by >= 1.5x and the incremental path must beat warm by >= 3x at the
full default workload (smoke runs via ``BENCH_SERVICE_*`` env knobs skip
the gates; they are CPU-count independent, so they hold on 1-CPU
runners).
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import threading
import time
import urllib.request
from pathlib import Path

from repro.cli import main as cli_main
from repro.harness.reporting import format_table
from repro.service import create_async_server

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_service.json"

_ADJECTIVES = [
    "red", "green", "blue", "quick", "lazy", "bright", "dark", "smooth",
    "rough", "tall", "short", "wide", "narrow", "young", "old", "fast",
]
_NOUNS = [
    "team", "player", "coach", "city", "league", "season", "game", "match",
    "club", "region", "district", "state", "party", "survey", "school",
]


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _write_database_csv(path: Path, rows: int, seed: int) -> None:
    rng = random.Random(seed)
    values = [f"{a} {n}" for a in _ADJECTIVES for n in _NOUNS]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["alpha", "beta", "category", "score"])
    for _ in range(rows):
        writer.writerow(
            [
                rng.choice(values),
                rng.choice(values),
                rng.choice(_NOUNS),
                rng.randint(1, 40),
            ]
        )
    path.write_text(buffer.getvalue())


def _write_article(path: Path, doc_index: int, claims: int, seed: int) -> None:
    rng = random.Random(seed)
    sentences = []
    for _ in range(claims):
        count = rng.randint(2, 99)
        alpha = rng.choice(_ADJECTIVES)
        beta = rng.choice(_NOUNS)
        category = rng.choice(_NOUNS)
        sentences.append(
            f"There were {count} records for the {alpha} {beta} "
            f"in the {category} group."
        )
    path.write_text(
        f"<title>Service report {doc_index}</title>"
        f"<h1>Totals by category</h1><p>{' '.join(sentences)}</p>"
    )


def _post_check(url: str, payload: dict) -> list[dict]:
    request = urllib.request.Request(
        url + "/check",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return [json.loads(line) for line in response.read().splitlines()]


def _claims_of(events: list[dict]) -> list[dict]:
    ordered = sorted(
        (e for e in events if e["event"] == "claim"), key=lambda e: e["index"]
    )
    return [e["claim"] for e in ordered]


def _cli_claims(capsys, csv_path: Path, article_path: Path) -> list[dict]:
    code = cli_main(
        ["check", "--csv", str(csv_path), "--article", str(article_path),
         "--json"]
    )
    assert code in (0, 1)
    return json.loads(capsys.readouterr().out)["claims"]


def _timed_round(url: str, jobs: list[dict]) -> tuple[list[list[dict]], float]:
    started = time.perf_counter()
    results = [_post_check(url, job) for job in jobs]
    return results, time.perf_counter() - started


#: Shortest timed interval behind one per-round sample of a fast tier: a
#: cached round takes a few milliseconds, too short for a loaded 2-CPU
#: box to time steadily on its own.
MIN_SAMPLE_SECONDS = 0.5


def _seconds_per_round(url: str, jobs: list[dict]) -> float:
    """Mean seconds of one round, over as many back-to-back rounds as
    fill :data:`MIN_SAMPLE_SECONDS` inside one timer."""
    rounds = 0
    started = time.perf_counter()
    while True:
        for job in jobs:
            _post_check(url, job)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MIN_SAMPLE_SECONDS:
            return elapsed / rounds


def test_service_throughput(capsys, tmp_path):
    n_databases = _env_int("BENCH_SERVICE_DBS", 3)
    rows = _env_int("BENCH_SERVICE_ROWS", 2000)
    claims_per_doc = _env_int("BENCH_SERVICE_CLAIMS", 8)
    repeats = _env_int("BENCH_SERVICE_REPEATS", 3)
    full_size = rows >= 2000 and n_databases >= 3

    jobs: list[dict] = []
    files: list[tuple[Path, Path]] = []
    for index in range(n_databases):
        csv_path = tmp_path / f"records_{index}.csv"
        article_path = tmp_path / f"report_{index}.html"
        _write_database_csv(csv_path, rows, seed=100 + index)
        _write_article(article_path, index, claims_per_doc, seed=200 + index)
        files.append((csv_path, article_path))
        jobs.append(
            {"csv": [str(csv_path)], "article_path": str(article_path)}
        )

    server = create_async_server(port=0)
    server.start_in_thread()
    try:
        cold_results, cold_seconds = _timed_round(server.url, jobs)

        # Follow-up requests reference registered data by the fingerprint
        # the cold round echoed — the editing-loop shape of the protocol.
        warm_jobs = []
        incremental_jobs = []
        for job, events in zip(jobs, cold_results):
            fingerprint = events[0]["database_fingerprint"]
            reference = {
                "database": fingerprint,
                "article_path": job["article_path"],
            }
            warm_jobs.append(dict(reference, incremental=False))
            incremental_jobs.append(reference)

        warm_results, _ = _timed_round(server.url, warm_jobs)  # steady-state
        warm_seconds = min(
            _timed_round(server.url, warm_jobs)[1] for _ in range(repeats)
        )

        incremental_results, _ = _timed_round(server.url, incremental_jobs)
        incremental_seconds = min(
            _seconds_per_round(server.url, incremental_jobs)
            for _ in range(repeats)
        )

        # Edit the *last* sentence per document: exactly one claim
        # re-evaluates. (Editing the first sentence would correctly
        # invalidate every claim — it is part of each claim's
        # paragraph-start keyword context.)
        for index, (_, article_path) in enumerate(files):
            text = article_path.read_text()
            head, _, tail = text.rpartition("There were")
            edited = head + "We counted" + tail
            assert edited != text
            article_path.write_text(edited)
        edit_results, edit_seconds = _timed_round(server.url, incremental_jobs)
    finally:
        server.shutdown_gracefully()

    # Bit-identity of every tier against the one-shot CLI oracle.
    n_claims = 0
    for job_index, (csv_path, article_path) in enumerate(files):
        # The articles were edited in place above; restore for the oracle
        # of the unedited tiers by comparing against the *served* claims.
        cold = _claims_of(cold_results[job_index])
        assert cold == _claims_of(warm_results[job_index])
        assert cold == _claims_of(incremental_results[job_index])
        edited_events = edit_results[job_index]
        summary = edited_events[-1]
        assert summary["evaluated_claims"] == 1, summary
        assert summary["cached_claims"] == len(cold) - 1, summary
        # No CLI-oracle comparison for the edit tier: cached verdicts
        # keep their original document context by design, and the fresh
        # claim is inferred in a 1-claim batch — only a non-incremental
        # request guarantees the jointly-inferred CLI result (see
        # repro/service/incremental.py). The guaranteed properties are
        # the counts above and the re-evaluated claim's index/status
        # being present and well-formed.
        fresh_claims = _claims_of(edited_events)
        assert all(claim["status"] for claim in fresh_claims)
        n_claims += len(cold)

    # CLI oracle for the unedited tiers: regenerate the original articles.
    for index, (csv_path, article_path) in enumerate(files):
        _write_article(article_path, index, claims_per_doc, seed=200 + index)
        oracle = _cli_claims(capsys, csv_path, article_path)
        assert _claims_of(cold_results[index]) == oracle, index

    def tier(seconds: float, baseline: float | None = None) -> dict:
        payload = {
            "seconds": round(seconds, 4),
            "claims_per_sec": round(n_claims / max(seconds, 1e-9), 1),
        }
        if baseline is not None:
            payload["speedup_vs_cold"] = round(
                baseline / max(seconds, 1e-9), 2
            )
        return payload

    warm_speedup = cold_seconds / max(warm_seconds, 1e-9)
    incremental_speedup_vs_warm = warm_seconds / max(incremental_seconds, 1e-9)
    results = {
        "cold": tier(cold_seconds),
        "warm": tier(warm_seconds, cold_seconds),
        "incremental": tier(incremental_seconds, cold_seconds),
        "incremental_edit": tier(edit_seconds, cold_seconds),
    }
    results["incremental"]["speedup_vs_warm"] = round(
        incremental_speedup_vs_warm, 2
    )
    payload = {
        "benchmark": "verification service: cold vs warm pool vs incremental",
        "cpu_count": os.cpu_count() or 1,
        "databases": n_databases,
        "rows_per_database": rows,
        "claims": n_claims,
        "verdicts_identical": True,
        "results": results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    rows_out = [
        [name, f"{entry['seconds']:.3f}s", f"{entry['claims_per_sec']:.0f}",
         f"x{entry.get('speedup_vs_cold', 1.0):.2f}"]
        for name, entry in results.items()
    ]
    with capsys.disabled():
        print(
            "\n"
            + format_table(
                "Verification service throughput",
                ["Tier", "Wall", "Claims/s", "vs cold"],
                rows_out,
            )
        )
        print(f"written: {OUTPUT}")

    # Gates (hardware-independent: all tiers run on the same machine).
    if full_size:
        assert warm_speedup >= 1.5, payload
        assert incremental_speedup_vs_warm >= 3.0, payload


def test_service_resilience_smoke(tmp_path):
    """Liveness under a stalled in-flight group (writes no JSON).

    One request's group is held by an injected sleep; while it is in
    flight, ``GET /health`` must keep answering (monitoring never queues
    behind verification), and the held stream must still run to its
    summary. Deliberately separate from the throughput benchmark so
    ``BENCH_service.json`` and its regression ratios never include
    fault-injected timings.
    """
    from repro.faults import FaultSpec, active

    csv_path = tmp_path / "records.csv"
    article_path = tmp_path / "report.html"
    _write_database_csv(csv_path, rows=200, seed=100)
    _write_article(article_path, 0, claims=4, seed=200)

    server = create_async_server(port=0)
    server.start_in_thread()
    results: list[list[dict]] = []
    errors: list[BaseException] = []

    def held_client() -> None:
        try:
            results.append(
                _post_check(
                    server.url,
                    {
                        "csv": [str(csv_path)],
                        "article_path": str(article_path),
                    },
                )
            )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    try:
        with active(FaultSpec("queue.exec", "sleep", seconds=1.0)):
            client = threading.Thread(target=held_client)
            client.start()
            deadline = time.perf_counter() + 30
            probes = 0
            while client.is_alive() and time.perf_counter() < deadline:
                with urllib.request.urlopen(
                    server.url + "/health", timeout=5
                ) as response:
                    health = json.loads(response.read())
                assert health["status"] == "ok"
                probes += 1
                time.sleep(0.05)
            client.join(timeout=60)
        assert probes > 0
        assert not errors
        summary = results[0][-1]
        assert summary["event"] == "summary"
        assert summary["errors"] == 0
        assert summary["evaluated_claims"] == summary["claims"] > 0
    finally:
        server.shutdown_gracefully()
