"""Corpus pipeline throughput: sequential vs sharded workers vs warm cache.

Runs the builtin evaluation corpus through three pipeline shapes and
writes ``BENCH_pipeline.json``:

- ``sequential``: the in-process runner (one ``CheckerPool``, no disk
  cache) — the baseline a single analyst pays today;
- ``parallel``: the same cases sharded over worker processes, all sharing
  one *cold* disk cube-cache directory;
- ``warm_cache``: the parallel run repeated against the now-warm cache,
  the shape of ablation sweeps and EM re-runs.

Every run must produce identical verdicts — the benchmark asserts that
before it reports a single number. Environment knobs for CI smoke runs:
``BENCH_PIPELINE_CASES`` (default 12) and ``BENCH_PIPELINE_WORKERS``
(default 4). The parallel-speedup assertion only applies on machines with
at least as many CPUs as workers; the warm-cache hit-rate assertion is
hardware-independent.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.core.config import AggCheckerConfig
from repro.corpus.generator import generate_corpus
from repro.harness import run_corpus
from repro.harness.reporting import format_table

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_pipeline.json"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _verdict_signature(run) -> list[list[str]]:
    return [
        [verdict.status.value for verdict in result.report.verdicts]
        for result in run.results
    ]


def _timed(corpus, config, limit, workers):
    started = time.perf_counter()
    run = run_corpus(corpus, config, limit=limit, workers=workers)
    return run, time.perf_counter() - started


def test_pipeline_throughput(capsys):
    cases = _env_int("BENCH_PIPELINE_CASES", 12)
    workers = _env_int("BENCH_PIPELINE_WORKERS", 4)
    cpu_count = os.cpu_count() or 1

    corpus = generate_corpus()
    cases = min(cases, len(corpus.cases))

    rows = []
    results = {}
    with tempfile.TemporaryDirectory(prefix="bench_pipeline_") as cache_dir:
        cached = AggCheckerConfig().with_engine(cache_dir=cache_dir)
        plans = [
            ("sequential", AggCheckerConfig(), 1),
            ("parallel", cached, workers),
            ("warm_cache", cached, workers),
        ]
        for name, config, n_workers in plans:
            run, seconds = _timed(corpus, config, cases, n_workers)
            results[name] = {
                "run": run,
                "seconds": seconds,
                "workers": n_workers,
            }

    baseline = results["sequential"]
    signature = _verdict_signature(baseline["run"])
    n_claims = baseline["run"].metrics.n_claims
    payload_results = {}
    for name, entry in results.items():
        run, seconds = entry["run"], entry["seconds"]
        assert _verdict_signature(run) == signature, (
            f"{name} changed verdicts vs sequential"
        )
        stats = run.engine_stats
        claims_per_sec = n_claims / max(seconds, 1e-9)
        speedup = baseline["seconds"] / max(seconds, 1e-9)
        payload_results[name] = {
            "workers": entry["workers"],
            "seconds": round(seconds, 3),
            "claims_per_sec": round(claims_per_sec, 2),
            "speedup_vs_sequential": round(speedup, 2),
            "cube_queries": stats.cube_queries,
            "memory_cache_hit_rate": round(stats.cache_hit_rate(), 4),
            "disk_cache_hit_rate": round(stats.disk_hit_rate(), 4),
        }
        rows.append(
            [
                name,
                entry["workers"],
                f"{seconds:.2f}s",
                f"{claims_per_sec:.1f}",
                f"x{speedup:.2f}",
                f"{stats.disk_hit_rate():.0%}",
            ]
        )

    payload = {
        "benchmark": "corpus pipeline: sequential vs parallel vs warm cache",
        "cases": cases,
        "claims": n_claims,
        "cpu_count": cpu_count,
        "verdicts_identical": True,
        "results": payload_results,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    table = format_table(
        "Corpus pipeline throughput",
        ["Pipeline", "Workers", "Wall", "Claims/s", "Speedup", "Disk hits"],
        rows,
    )
    with capsys.disabled():
        print("\n" + table)
        print(f"written: {OUTPUT} (cpu_count={cpu_count})")

    # Warm cache must serve (nearly) every cube from disk, regardless of
    # hardware; tiny smoke runs with trivially few cubes are exempt.
    warm = payload_results["warm_cache"]
    cold = payload_results["parallel"]
    if cold["cube_queries"] >= 10:
        assert warm["disk_cache_hit_rate"] >= 0.9, warm
    # The parallel-speedup target needs real cores to mean anything.
    if cpu_count >= workers and workers >= 4 and cases >= 12:
        assert cold["speedup_vs_sequential"] >= 2.0, payload_results
