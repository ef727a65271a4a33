"""Benchmark regression gate: fresh BENCH_*.json vs committed baselines.

CI (and anyone locally) runs the benchmark suite, which rewrites the
``BENCH_*.json`` files in the working tree; this script then compares
each file's *headline ratios* (speedups, hit rates) against the
committed version (``git show <ref>:<file>`` by default, or a snapshot
directory via ``--baseline-dir``) and fails if any ratio dropped below
``tolerance * baseline``.

Comparisons are self-guarding rather than vacuous-or-flaky:

- a fresh file produced under a different workload than the baseline
  (smoke-sized rows/cases via ``BENCH_*`` env knobs) is **skipped** with a
  note — smoke ratios are not comparable to full-size ones;
- parallelism-dependent ratios are skipped when the runner has fewer
  CPUs than the benchmark's worker count (the PR 2 ``cpu_count`` guard),
  so 1-CPU runners pass cleanly;
- a missing fresh file means the benchmark did not run — skipped, not
  failed (the CI matrix decides which benchmarks each job runs); a fresh
  file byte-identical to the baseline means the benchmark never rewrote
  the checked-out copy (every payload embeds wall-clock timings), which
  is likewise skipped instead of reported as a vacuous "ok".

Exit status: 0 when nothing regressed, 1 otherwise.

Usage::

    python benchmarks/check_regression.py [--tolerance 0.5]
        [--baseline-ref HEAD] [--baseline-dir DIR] [FILES ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Default relative tolerance: a headline ratio may lose up to half its
#: baseline value before the gate trips — benchmarks on shared CI
#: runners are noisy, and the gate is for catching collapses (a lost
#: vectorized path, an accidentally disabled cache), not 10% wobbles.
DEFAULT_TOLERANCE = 0.5


def _params(payload: dict, *keys: str) -> tuple:
    """The workload signature under which a payload was produced."""
    return tuple(_lookup(payload, key) for key in keys)


def _lookup(payload: dict, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _swept_rows(payload: dict) -> tuple:
    return tuple(entry.get("rows") for entry in payload.get("results", []))


#: file name -> (workload-signature fn, ratio-extraction fn,
#:               parallelism-guarded ratio names fn)
SPECS: dict[str, tuple] = {
    # Baseline recorded on 2 CPUs against the queue-backed asyncio server
    # (the one front end; per-field median of five runs): warm pool 3.96x
    # cold, incremental 10.4x warm (floors 1.98x and 5.2x). Queue workers
    # that re-load and re-hash the CSV for every group instead of using
    # the checker admission registered read 2.0x, at the warm floor.
    "BENCH_service.json": (
        lambda p: _params(p, "databases", "rows_per_database", "claims"),
        lambda p: {
            "warm_pool_speedup": _lookup(p, "results.warm.speedup_vs_cold"),
            "incremental_speedup_vs_warm": _lookup(
                p, "results.incremental.speedup_vs_warm"
            ),
        },
        lambda p: (),
    ),
    "BENCH_sql.json": (
        _swept_rows,
        lambda p: {
            # SQLite cubes against columnar cubes (both MERGED_CACHED, a
            # fresh engine per timing) at the largest swept size, shadow
            # build inside the clock: recorded at 0.17x columnar at 1M
            # rows on 2 CPUs (per-field median of three runs, 0.16-0.18),
            # so the floor (tolerance x baseline) is 0.085x. Pushdown pays
            # for out-of-core, not speed: the floor catches the SQL tier
            # collapsing against the columnar one (more than 2x slower).
            "sqlite_speedup_vs_columnar": (p.get("results") or [{}])[-1].get(
                "sqlite_speedup_vs_columnar"
            ),
            # Delivery contracts (1.0 = held): the out-of-core scenario
            # materialized nothing, and every corpus verdict matched.
            "out_of_core_pushdown": _lookup(p, "out_of_core.pushdown_ok"),
            "verdict_identity": _lookup(p, "verdict_identity.identical"),
        },
        lambda p: (),
    ),
    "BENCH_service_load.json": (
        # The gated ratios are delivery contracts (acked/submitted), not
        # timings, so the workload signature is the document/claim shape
        # only — runner speed cannot change what 1.0 means.
        lambda p: _params(
            p, "load.documents", "load.claims_per_doc",
            "chaos.documents", "chaos.claims_per_doc",
        ),
        lambda p: {
            "load_completion_ratio": _lookup(p, "load.completion_ratio"),
            "chaos_completion_ratio": _lookup(p, "chaos.completion_ratio"),
        },
        lambda p: (),
    ),
}


def _load_fresh(name: str, fresh_dir: Path) -> dict | None:
    path = fresh_dir / name
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _load_baseline(
    name: str, ref: str, baseline_dir: Path | None
) -> dict | None:
    if baseline_dir is not None:
        path = baseline_dir / name
        return json.loads(path.read_text()) if path.exists() else None
    result = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def check_file(
    name: str,
    tolerance: float,
    ref: str,
    baseline_dir: Path | None,
    fresh_dir: Path = REPO_ROOT,
) -> list[tuple[str, str, str, str, str]]:
    """Rows of (metric, baseline, fresh, floor, status) for one file."""
    params_of, ratios_of, guarded_of = SPECS[name]
    fresh = _load_fresh(name, fresh_dir)
    if fresh is None:
        return [("-", "-", "-", "-", "skipped: benchmark did not run")]
    baseline = _load_baseline(name, ref, baseline_dir)
    if baseline is None:
        return [("-", "-", "-", "-", "skipped: no committed baseline")]
    if fresh == baseline:
        # After checkout the committed file *is* the working-tree file;
        # every benchmark embeds wall-clock timings, so byte-identical
        # payloads mean the benchmark never rewrote it. Refuse to report
        # a vacuous self-comparison as "ok".
        return [
            (
                "-", "-", "-", "-",
                "skipped: fresh file identical to baseline "
                "(benchmark did not rewrite it)",
            )
        ]
    if params_of(fresh) != params_of(baseline):
        return [
            (
                "-", "-", "-", "-",
                "skipped: workload differs from baseline "
                f"({params_of(fresh)} != {params_of(baseline)})",
            )
        ]
    guarded = set(guarded_of(fresh))
    rows = []
    for metric, base_value in ratios_of(baseline).items():
        fresh_value = ratios_of(fresh).get(metric)
        if base_value is None or fresh_value is None:
            rows.append((metric, "-", "-", "-", "skipped: metric missing"))
            continue
        if metric in guarded:
            rows.append(
                (
                    metric,
                    f"{base_value:.2f}",
                    f"{fresh_value:.2f}",
                    "-",
                    f"skipped: needs more CPUs than {os.cpu_count() or 1}",
                )
            )
            continue
        floor = tolerance * base_value
        status = "ok" if fresh_value >= floor else "REGRESSED"
        rows.append(
            (
                metric,
                f"{base_value:.2f}",
                f"{fresh_value:.2f}",
                f"{floor:.2f}",
                status,
            )
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh BENCH_*.json headline ratios regress "
        "vs the committed baselines"
    )
    parser.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help=f"benchmark files to gate (default: all of {sorted(SPECS)})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fresh ratio must be >= tolerance * baseline "
        f"(default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref holding the committed baselines (default HEAD)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        help="read baselines from a directory instead of git",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the freshly produced BENCH files "
        "(default: the repo root)",
    )
    args = parser.parse_args(argv)
    if not (0.0 < args.tolerance <= 1.0):
        parser.error(f"tolerance must be in (0, 1], got {args.tolerance}")
    unknown = [name for name in args.files if name not in SPECS]
    if unknown:
        parser.error(f"unknown benchmark files {unknown}; known: {sorted(SPECS)}")

    files = args.files or sorted(SPECS)
    regressed = False
    print(f"benchmark regression gate (tolerance {args.tolerance:.2f})")
    for name in files:
        print(f"\n{name}")
        for metric, base, fresh, floor, status in check_file(
            name, args.tolerance, args.baseline_ref, args.baseline_dir,
            args.fresh_dir,
        ):
            print(
                f"  {metric:<32} baseline={base:<8} fresh={fresh:<8} "
                f"floor={floor:<8} {status}"
            )
            regressed = regressed or status == "REGRESSED"
    if regressed:
        print("\nFAIL: at least one headline ratio regressed", file=sys.stderr)
        return 1
    print("\nall headline ratios within tolerance (or cleanly skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
