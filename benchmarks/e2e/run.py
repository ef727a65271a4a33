"""The repository's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py --workload corpus_cold --seed 2019 \\
        --seconds 10 --trace 0

builds the workload's inputs from the seed, runs it, checks its outputs,
prints every metric by name with its unit, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``). ``--trace 0``
reports the end-to-end metrics from an untraced run; ``--trace 1`` runs
the same workload and seed under the tracer and reports the per-layer
metrics instead. Several ``--workload`` flags (or none: all five) run one
after another. See README.md for definitions.
"""

from __future__ import annotations

import sys
import time

_PROCESS_STARTED = time.perf_counter()

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (REPO_ROOT / "src" / "repro" / "__main__.py").is_file():
    sys.exit("benchmarks/e2e/run.py: no src/repro beside it; nothing to measure")
if __name__ == "__main__":
    # The script's own directory would shadow stdlib ``trace``; the
    # benchmark's modules are imported as the ``e2e`` package instead.
    sys.path[0] = str(HERE.parent)
for _entry in (str(HERE.parent), str(REPO_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from e2e import inprocess, served, spec  # noqa: E402
from e2e.inprocess import verdict_digest  # noqa: E402
from e2e.trace import Tracer, installed  # noqa: E402


def header() -> dict:
    """Hardware and version block carried by every result file."""
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    # Only in a work tree of its own: the driver's checkout is not a
    # repository, and git would search the directories above it.
    if (REPO_ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
                capture_output=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
    }


def execute(
    name: str, seed: int, seconds: float, scale: str, traced: bool,
    started: float,
):
    """Build the workload's inputs, run it, check its outputs.

    Returns (run, tracer); the tracer is None for an untraced run and for
    ``served_mixed``, whose server subprocess is never traced (its
    ``service.*`` metrics come from events, /stats and the replay).
    """
    workdir = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if traced and name != "served_mixed" else None
    context = inprocess.Context(
        spec.SCALES[scale], seed, seconds, started, workdir,
        (lambda: installed(tracer)) if tracer else nullcontext,
    )
    try:
        if name == "served_mixed":
            return served.served_mixed(context), tracer
        return getattr(inprocess, name)(context), tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_of(
    name: str, run, tracer: Tracer | None, traced: bool,
    seed: int, seconds: float, scale: str,
) -> dict:
    """The result record of one run (one entry of a result file)."""
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": traced,
        "correct": not run.problems and run.failed == 0,
        "attempted": run.claims,
        "failed": run.failed,
        "problems": run.problems,
        # Set when the measurement, not the outputs, cannot be trusted
        # (served_mixed: the generator could not keep its schedule).
        "invalid": getattr(run, "invalid", None),
        "verdict_digest": verdict_digest(run.triples),
        "metrics": (
            per_layer(name, run, tracer) if traced else run.end_to_end()
        ),
        # Per-document latency is not an end-to-end metric (README,
        # "Demoted"); it is kept with every record, untraced too.
        "latency": latency_summary(run),
    }


def latency_summary(run) -> dict[str, float]:
    samples = run.latencies()
    return {
        "harness.documents": len(samples),
        "harness.doc_latency_p50_s": statistics.median(samples),
        "harness.doc_latency_p90_s": inprocess.percentile(samples, 0.90),
    }


def per_layer(name: str, run, tracer: Tracer | None) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload has no such layer."""
    metrics = {metric: 0.0 for metric, _, _ in spec.PER_LAYER}
    metrics.update(
        {key: value for key, value in run.extra.items() if key in metrics}
    )
    metrics.update(latency_summary(run))
    if tracer is None:  # served: the server subprocess is not traced
        return metrics

    seconds, root_seconds = tracer.layer_seconds()
    for layer in spec.LAYER_TIMES:
        metrics[layer] = seconds.get(layer, 0.0)
        metrics[f"{layer}_share"] = seconds.get(layer, 0.0) / root_seconds
    for counter, value in tracer.counts.items():
        metrics[counter] = value
    metrics["nlp.rounds_to_calls"] = tracer.counted["nlp.rounds_to_s"][0]

    stats = inprocess.EngineStats()
    for outcome in run.outcomes:
        stats += outcome.stats
    top1, true_positives, flagged, erroneous = (
        sum(column) for column in zip(*(o.fidelity for o in run.outcomes))
    )
    lookups = stats.cache_hits + stats.cache_misses
    disk_lookups = stats.disk_hits + stats.disk_misses
    cost = tracer.wrapper_cost_seconds()
    metrics.update(
        {
            "evalexec.scoped_candidates": stats.queries_requested,
            "db.cube_queries": stats.cube_queries,
            "db.rows_scanned": stats.rows_scanned,
            "db.gathered_candidates": stats.gathered_candidates,
            "db.cache.hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
            "db.diskcache.hit_ratio": (
                stats.disk_hits / disk_lookups if disk_lookups else 0.0
            ),
            "db.sql.pushdown_queries": stats.pushdown_queries,
            "db.rows_materialized": stats.rows_materialized,
            "core.degraded": sum(o.degraded for o in run.outcomes),
            "fidelity.top1_covered": top1,
            "fidelity.true_positives": true_positives,
            "fidelity.flagged": flagged,
            "fidelity.erroneous": erroneous,
            "trace.spans": len(tracer.spans),
            "trace.overhead_ratio": root_seconds / max(
                root_seconds - cost, 1e-9
            ),
        }
    )
    if name == "bigrows_disk_rerun":
        # The disk tier's write tax, measured where it is paid: its busy
        # time inside the store pass (the first pass's documents).
        store_documents = run.extra["store_documents"]
        own = tracer.self_times()
        metrics["harness.store_pass_over_cold_s"] = sum(
            seconds
            for span, seconds in zip(tracer.spans, own)
            if span[0].startswith("db.diskcache.")
            and span[4] < store_documents
        )
        # Warm passes only, as the issue's validity check reads them.
        warm = inprocess.EngineStats()
        for outcome in run.outcomes[store_documents:]:
            warm += outcome.stats
        metrics["db.diskcache.hit_ratio"] = warm.disk_hit_rate()
    return metrics


def report(record: dict) -> None:
    """Human-readable metric lines, then the JSON result line."""
    units = {
        name: unit for name, unit, _ in spec.END_TO_END + spec.PER_LAYER
    }
    mode = "traced" if record["traced"] else "untraced"
    print(f"== {record['workload']} ({mode}) ==")
    for name, value in {**record["metrics"], **record["latency"]}.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    share = record["failed"] / record["attempted"]
    print(f"{'failed_share':36s} {share:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} claims)")
    print(f"verdict_digest {record['verdict_digest']}")
    for problem in record["problems"]:
        print(f"PROBLEM: {problem}")
    if record["invalid"]:
        print(f"INVALID RUN: {record['invalid']}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()
                },
            }
        ),
        flush=True,
    )


def write_results(path: Path, records: list[dict]) -> None:
    """Append the records to a result file (created with the header).

    Several invocations of one commit may share a file, so that
    ``compare.py`` sees each side's run-to-run spread; runs of another
    commit do not belong in it.
    """
    results = {"header": header(), "records": []}
    if path.exists():
        results = json.loads(path.read_text())
        if results["header"]["commit"] != header()["commit"]:
            sys.exit(f"{path} holds runs of another commit; use a new file")
    results["records"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=spec.WORKLOADS,
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="length of the measured region (see spec.Sizes)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced run, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument("--scale", choices=sorted(spec.SCALES), default="full")
    parser.add_argument(
        "--out", type=Path,
        help="also write the records, with the hardware header, to this file",
    )
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be a positive number")

    # A polite kill unwinds like an exception, so the server subprocess is
    # stopped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    records = []
    started = _PROCESS_STARTED
    for name in args.workload or spec.WORKLOADS:
        traced = bool(args.trace)
        run, tracer = execute(
            name, args.seed, args.seconds, args.scale, traced, started
        )
        record = record_of(
            name, run, tracer, traced, args.seed, args.seconds, args.scale
        )
        if tracer is not None:
            tracer.write(
                OUT / f"{name}.trace.json", {**header(), "record": record}
            )
        report(record)
        records.append(record)
        started = time.perf_counter()
    if args.out:
        write_results(args.out, records)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
