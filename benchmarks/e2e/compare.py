"""Compare two result files, metric by metric, on absolutes.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are files
written by ``run.py --out`` (run it several times into one file to give a
side a spread). One row per workload x end-to-end metric: both medians,
the ratio B/A with its base, the regression bound from ``BENCHMARK.json``
and a verdict:

- ``unresolved``: a side's own runs spread (quartile distance / median)
  wider than the bound, or a run was marked invalid, so the comparison
  cannot tell;
- ``regressed``: B's median is worse than A's by more than the bound;
- ``improved``: B's median is better by more than A's own spread;
- ``unchanged``: otherwise.

Then, per workload, failed claims on both sides and whether runs of the
same seed produced the same verdict digest. Exits 1 on any regression,
failed claim or digest mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: list[float]) -> float | None:
    """Quartile distance over median; range over median below four runs;
    None for a single run (its spread is unknown)."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / middle


def verdict(
    base: list[float], change: list[float], better: str, bound: float
) -> str:
    spreads = [s for s in (spread(base), spread(change)) if s is not None]
    if any(s > bound for s in spreads):
        return "unresolved"
    a, b = statistics.median(base), statistics.median(change)
    worse_by = (b - a) / a if better == "lower" else (a - b) / a
    if worse_by > bound:
        return "regressed"
    if -worse_by > (spread(base) or 0.0) and worse_by < 0:
        return "improved"
    return "unchanged"


def untraced(path: Path) -> dict[str, list[dict]]:
    """Untraced records of a result file, by workload."""
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for record in json.loads(path.read_text())["records"]:
        if not record["traced"]:
            by_workload[record["workload"]].append(record)
    return by_workload


def compare(base_path: Path, change_path: Path) -> int:
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    base, change = untraced(base_path), untraced(change_path)
    bad = 0
    print(
        f"{'workload':20s} {'metric':20s} {'A (base)':>12s} {'B':>12s} "
        f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict"
    )
    for workload in base:
        if workload not in change:
            print(f"{workload:20s} missing from {change_path}")
            continue
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name] for r in base[workload]]
            b = [r["metrics"][name] for r in change[workload]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            if any(r["invalid"] for r in base[workload] + change[workload]):
                outcome = "unresolved"
            bad += outcome == "regressed"
            shown = [
                "n/a" if s is None else f"{s:.3f}"
                for s in (spread(a), spread(b))
            ]
            print(
                f"{workload:20s} {name:20s} {statistics.median(a):12.5g} "
                f"{statistics.median(b):12.5g} "
                f"{statistics.median(b) / statistics.median(a):7.3f} "
                f"{shown[0]:>9s} {shown[1]:>9s} {metric['bound']:6.2f}  "
                f"{outcome} (base {statistics.median(a):.5g} {metric['unit']}, "
                f"{len(a)} vs {len(b)} runs)"
            )
    print()
    for workload in base:
        if workload not in change:
            continue
        failed = [
            f"{sum(r['failed'] for r in side[workload])}/"
            f"{sum(r['attempted'] for r in side[workload])}"
            for side in (base, change)
        ]
        digests_a = {r["seed"]: r["verdict_digest"] for r in base[workload]}
        shared = [
            r for r in change[workload] if r["seed"] in digests_a
        ]
        same = all(r["verdict_digest"] == digests_a[r["seed"]] for r in shared)
        digest = (
            "no seed in common" if not shared
            else "digests equal" if same else "DIGESTS DIFFER"
        )
        print(
            f"{workload:20s} failed claims A {failed[0]}, B {failed[1]}; {digest}"
        )
        bad += not same
        bad += any(r["failed"] for r in base[workload] + change[workload])
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(Path(sys.argv[1]), Path(sys.argv[2])))
