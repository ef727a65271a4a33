"""Space budgets: unit contracts and the degradation ladder end to end.

Unit layer: :func:`estimate_cube_cells` is the
pre-materialization cardinality bound — the product over cube dimensions
of (distinct literals + DEFAULT + ALL) — and :class:`ResourceBudget` is
the stage-boundary check that turns an over-estimate into
:class:`BudgetExceeded` instead of an allocation.

Pipeline layer: a budget the running example cannot meet
must walk the same PR-6 ladder as a deadline — reduced scope, then
no-execution priors — producing explicit ``degraded`` verdicts, budget
counters on the engine stats, and (the PR's acceptance bar) CLI output
bit-identical to the service under the same limits. The ``faults`` tests
drive the ladder through the ``budget.estimate`` fire point, no hostile
data required.
"""

from __future__ import annotations

import json

import pytest

from repro.budget import ResourceBudget, estimate_cube_cells
from repro.errors import BudgetExceeded, ReproError


class TestEstimateCubeCells:
    def test_no_dimensions_is_one_cell(self):
        assert estimate_cube_cells((), {}) == 1

    def test_each_dimension_contributes_literals_plus_two(self):
        # literal | DEFAULT | ALL per dimension.
        estimate = estimate_cube_cells(
            ("team", "year"), {"team": ("BAL", "CLE"), "year": ("2014",)}
        )
        assert estimate == (2 + 2) * (1 + 2)

    def test_dimension_without_literals_still_counts_default_and_all(self):
        assert estimate_cube_cells(("team",), {}) == 2

    def test_estimate_grows_multiplicatively(self):
        one = estimate_cube_cells(("a",), {"a": ("x",) * 5})
        two = estimate_cube_cells(("a", "b"), {"a": ("x",) * 5, "b": ("y",) * 5})
        assert two == one * one


class TestResourceBudget:
    def test_non_positive_limits_are_rejected(self):
        for field in ("max_rows", "max_cube_cells", "max_candidates"):
            with pytest.raises(ValueError):
                ResourceBudget(**{field: 0})

    def test_unlimited_budget_checks_pass(self):
        budget = ResourceBudget()
        budget.check_rows(10**12, "stage")
        budget.check_cube(10**12, "stage")
        budget.check_candidates(10**12, "stage")

    @pytest.mark.parametrize(
        "method,kind",
        [
            ("check_rows", "rows"),
            ("check_cube", "cube_cells"),
            ("check_candidates", "candidates"),
        ],
    )
    def test_each_kind_raises_with_stage_and_estimate(self, method, kind):
        budget = ResourceBudget(
            max_rows=5, max_cube_cells=5, max_candidates=5
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            getattr(budget, method)(6, "some-stage")
        error = excinfo.value
        assert error.kind == kind
        assert error.stage == "some-stage"
        assert error.limit == 5
        assert error.estimate == 6
        assert isinstance(error, ReproError)

    @pytest.mark.parametrize(
        "method", ["check_rows", "check_cube", "check_candidates"]
    )
    def test_at_the_limit_passes(self, method):
        budget = ResourceBudget(
            max_rows=5, max_cube_cells=5, max_candidates=5
        )
        getattr(budget, method)(5, "stage")


class TestBudgetLadder:
    @pytest.fixture()
    def nfl(self):
        from repro.core.checker import AggChecker
        from repro.core.config import AggCheckerConfig
        from repro.db import Database
        from repro.db.csvio import load_csv_text
        from repro.service.protocol import parse_article

        from tests.service.conftest import NFL_ARTICLE, NFL_CSV

        database = Database(
            "t", [load_csv_text(NFL_CSV, "nflsuspensions")]
        )
        document = parse_article(NFL_ARTICLE, "nfl")

        def build(**limits):
            return AggChecker(database, AggCheckerConfig(**limits)), document

        return build

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_cube_cells": 1},
            {"max_candidates": 1},
            {"max_rows_materialized": 1},
        ],
        ids=["cube_cells", "candidates", "rows"],
    )
    def test_impossible_budget_degrades_instead_of_failing(
        self, nfl, limits
    ):
        checker, document = nfl(**limits)
        report = checker.check_document(document)
        assert report.verdicts, "degraded runs still produce verdicts"
        for verdict in report.verdicts:
            assert verdict.degraded == "no_exec"
        stats = report.engine_stats
        assert stats.budget_rejections >= 2  # full and scope rungs
        assert stats.budget_degraded == 1
        assert stats.budget_exec_skipped == 1

    def test_generous_budget_changes_nothing(self, nfl):
        bounded, document = nfl(
            max_cube_cells=10**9,
            max_candidates=10**9,
            max_rows_materialized=10**9,
        )
        unbounded, _ = nfl()
        limited = bounded.check_document(document)
        free = unbounded.check_document(document)
        assert [
            (v.status, v.probability_correct, v.degraded)
            for v in limited.verdicts
        ] == [
            (v.status, v.probability_correct, v.degraded)
            for v in free.verdicts
        ]
        assert limited.engine_stats.budget_rejections == 0

    def test_budget_limits_change_the_config_fingerprint(self):
        from repro.core.config import AggCheckerConfig
        from repro.service.incremental import config_fingerprint

        assert config_fingerprint(
            AggCheckerConfig(max_cube_cells=1)
        ) != config_fingerprint(AggCheckerConfig())

    @pytest.mark.faults
    def test_budget_estimate_fault_drives_the_ladder(self, nfl):
        from repro.faults import FaultSpec, active

        checker, document = nfl()
        with active(FaultSpec("budget.estimate", "raise", times=0)):
            report = checker.check_document(document)
        for verdict in report.verdicts:
            assert verdict.degraded == "no_exec"
        assert report.engine_stats.budget_rejections >= 2


class TestCliServiceBitIdentity:
    def test_over_budget_request_degrades_identically_cli_vs_service(
        self, tmp_path, capsys
    ):
        """The PR's acceptance bar: same budget, same degraded bits."""
        from repro.cli import main as cli_main
        from repro.core.config import AggCheckerConfig

        from tests.service.test_aio import serve
        from tests.service.conftest import (
            NFL_ARTICLE,
            NFL_CSV,
            claims_of,
            post_check,
        )

        csv_path = tmp_path / "nflsuspensions.csv"
        csv_path.write_text(NFL_CSV)
        article_path = tmp_path / "article.html"
        article_path.write_text(NFL_ARTICLE)

        code = cli_main(
            [
                "check", "--csv", str(csv_path), "--article",
                str(article_path), "--max-cube-cells", "1", "--json",
            ]
        )
        assert code in (0, 1)
        oracle = json.loads(capsys.readouterr().out)["claims"]
        assert oracle and all(c.get("degraded") == "no_exec" for c in oracle)

        server = serve(
            workers=1, config=AggCheckerConfig(max_cube_cells=1)
        )
        try:
            events = post_check(
                server.url,
                {
                    "csv": str(csv_path),
                    "article_path": str(article_path),
                },
            )
            assert claims_of(events) == oracle
            summary = events[-1]
            assert summary["event"] == "summary"
            assert summary["errors"] == 0
        finally:
            server.shutdown_gracefully()

    def test_budget_degraded_verdicts_are_never_memoized(self, tmp_path):
        """Resubmitting under a budget re-verifies: no cached degraded bits."""
        from repro.core.config import AggCheckerConfig

        from tests.service.test_aio import serve
        from tests.service.conftest import NFL_ARTICLE, NFL_CSV, post_check

        csv_path = tmp_path / "nflsuspensions.csv"
        csv_path.write_text(NFL_CSV)
        article_path = tmp_path / "article.html"
        article_path.write_text(NFL_ARTICLE)
        payload = {
            "csv": str(csv_path),
            "article_path": str(article_path),
        }
        server = serve(
            workers=1, config=AggCheckerConfig(max_cube_cells=1)
        )
        try:
            post_check(server.url, payload)
            second = post_check(server.url, payload)
            assert all(
                not e["cached"] for e in second if e["event"] == "claim"
            )
        finally:
            server.shutdown_gracefully()
