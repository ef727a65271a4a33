"""Unit tests for the benchmark regression gate (no pipeline)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def service_payload(warm: float, incremental: float, rows: int = 2000) -> dict:
    return {
        "databases": 3,
        "rows_per_database": rows,
        "claims": 24,
        "results": {
            "warm": {"speedup_vs_cold": warm},
            "incremental": {"speedup_vs_warm": incremental},
        },
    }


def write(directory: Path, name: str, payload: dict) -> None:
    (directory / name).write_text(json.dumps(payload))


@pytest.fixture()
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    baseline.mkdir()
    fresh.mkdir()
    return baseline, fresh


class TestCheckFile:
    def test_ok_within_tolerance(self, dirs):
        baseline, fresh = dirs
        write(baseline, "BENCH_service.json", service_payload(3.0, 20.0))
        write(fresh, "BENCH_service.json", service_payload(1.6, 11.0))
        rows = check_regression.check_file(
            "BENCH_service.json", 0.5, "HEAD", baseline, fresh
        )
        assert [row[-1] for row in rows] == ["ok", "ok"]

    def test_regression_detected(self, dirs):
        baseline, fresh = dirs
        write(baseline, "BENCH_service.json", service_payload(3.0, 20.0))
        write(fresh, "BENCH_service.json", service_payload(1.2, 20.0))
        rows = check_regression.check_file(
            "BENCH_service.json", 0.5, "HEAD", baseline, fresh
        )
        statuses = {row[0]: row[-1] for row in rows}
        assert statuses["warm_pool_speedup"] == "REGRESSED"
        assert statuses["incremental_speedup_vs_warm"] == "ok"

    def test_workload_mismatch_skips(self, dirs):
        baseline, fresh = dirs
        write(baseline, "BENCH_service.json", service_payload(3.0, 20.0))
        write(
            fresh, "BENCH_service.json", service_payload(0.1, 0.1, rows=50)
        )
        rows = check_regression.check_file(
            "BENCH_service.json", 0.5, "HEAD", baseline, fresh
        )
        assert len(rows) == 1
        assert rows[0][-1].startswith("skipped: workload differs")

    def test_missing_fresh_file_skips(self, dirs):
        baseline, fresh = dirs
        write(baseline, "BENCH_service.json", service_payload(3.0, 20.0))
        rows = check_regression.check_file(
            "BENCH_service.json", 0.5, "HEAD", baseline, fresh
        )
        assert rows[0][-1] == "skipped: benchmark did not run"

    def test_identical_payload_skips_as_not_rerun(self, dirs):
        baseline, fresh = dirs
        payload = service_payload(3.0, 20.0)
        write(baseline, "BENCH_service.json", payload)
        write(fresh, "BENCH_service.json", payload)
        rows = check_regression.check_file(
            "BENCH_service.json", 0.5, "HEAD", baseline, fresh
        )
        assert len(rows) == 1
        assert "identical to baseline" in rows[0][-1]

    def test_missing_baseline_skips(self, dirs):
        baseline, fresh = dirs
        write(fresh, "BENCH_service.json", service_payload(3.0, 20.0))
        rows = check_regression.check_file(
            "BENCH_service.json", 0.5, "HEAD", baseline, fresh
        )
        assert rows[0][-1] == "skipped: no committed baseline"


class TestMain:
    def test_exit_one_on_regression(self, dirs, capsys):
        baseline, fresh = dirs
        write(baseline, "BENCH_service.json", service_payload(3.0, 20.0))
        write(fresh, "BENCH_service.json", service_payload(0.5, 20.0))
        code = check_regression.main(
            [
                "BENCH_service.json",
                "--baseline-dir", str(baseline),
                "--fresh-dir", str(fresh),
            ]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_exit_zero_when_clean(self, dirs, capsys):
        baseline, fresh = dirs
        write(baseline, "BENCH_service.json", service_payload(3.0, 20.0))
        write(fresh, "BENCH_service.json", service_payload(2.9, 19.0))
        code = check_regression.main(
            [
                "BENCH_service.json",
                "--baseline-dir", str(baseline),
                "--fresh-dir", str(fresh),
            ]
        )
        assert code == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_unknown_file_rejected(self, dirs):
        with pytest.raises(SystemExit):
            check_regression.main(["BENCH_bogus.json"])

    def test_bad_tolerance_rejected(self):
        with pytest.raises(SystemExit):
            check_regression.main(["--tolerance", "0"])

    def test_gates_current_repo_against_head(self, capsys, tmp_path):
        # The real invocation CI runs on a fresh checkout: the checked-out
        # baselines vs themselves must never regress (identical ratios).
        # Both sides are the checked-out files, so a baseline re-recorded
        # together with its gate entry reads the same before and after it
        # is committed.
        for name, (_, ratios_of) in check_regression.SPECS.items():
            path = check_regression.REPO_ROOT / name
            if not path.exists():
                continue
            baseline = json.loads(path.read_text())
            # Every gated ratio is present in the baseline.
            assert None not in ratios_of(baseline).values(), name
            write(tmp_path, name, baseline)
        code = check_regression.main(
            ["--fresh-dir", str(tmp_path), "--baseline-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        for name in check_regression.SPECS:
            assert name in out
