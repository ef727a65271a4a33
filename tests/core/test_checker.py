"""End-to-end tests for the AggChecker pipeline on the paper's example."""

from __future__ import annotations

import pytest

from repro.core import AggChecker, VerdictStatus, render_markup
from repro.db import Column, ColumnType, Database, Table
from repro.core.config import AggCheckerConfig

from tests.conftest import NFL_ROWS
from tests.db.oracle import ORACLE

PAPER_HTML = """
<title>The NFL's Uneven History Of Punishing Domestic Violence</title>
<h1>Lifetime bans</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"""

# The same article with a wrong count (the paper's Table 9 scenario: stale
# text after a data update). "eight" matches no aggregate of the fixture
# data even coincidentally ("seven" would: CountDistinct(Year) = 7 — the
# kind of spurious match behind the paper's 36% precision).
ERRONEOUS_HTML = PAPER_HTML.replace("only four previous", "only eight previous")


def build_db() -> Database:
    table = Table(
        "nflsuspensions",
        [
            Column("Name"),
            Column("Team"),
            Column("Games"),
            Column("Category"),
            Column("Year", ColumnType.NUMERIC),
        ],
        NFL_ROWS,
    )
    return Database("nfl", [table])


@pytest.fixture(scope="module")
def checker() -> AggChecker:
    return AggChecker(build_db())


@pytest.fixture(scope="module")
def report(checker):
    return checker.check_html(PAPER_HTML)


class TestPaperExample:
    def test_three_claims_detected(self, report):
        assert [c.claimed_value for c in report.claims] == [4, 3, 1]

    def test_all_claims_verified(self, report):
        statuses = [v.status for v in report.verdicts]
        assert statuses == [VerdictStatus.VERIFIED] * 3

    def test_lifetime_bans_resolved_via_abbreviation(self, report):
        verdict = report.verdicts[0]
        assert verdict.top_query is not None
        predicates = verdict.top_query.all_predicates
        assert any(
            p.column.column == "Games" and p.value == "indef" for p in predicates
        )
        assert verdict.top_result == 4

    def test_probability_correct_high(self, report):
        for verdict in report.verdicts:
            assert verdict.probability_correct > 0.9

    def test_engine_shared_work(self, report):
        stats = report.engine_stats
        assert stats.queries_requested > 1000
        assert stats.physical_queries < 50

    def test_markup(self, report):
        markup = render_markup(report.verdicts)
        assert "[OK four]" in markup
        assert "[OK one]" in markup

    def test_hover_text(self, report):
        assert "= 4" in report.verdicts[0].hover_text

    def test_report_accessors(self, report):
        assert report.flagged_claims() == []
        assert report.verdict_for(report.claims[0]) is report.verdicts[0]
        with pytest.raises(KeyError):
            report.verdict_for(object())

    def test_total_seconds_positive(self, report):
        assert report.total_seconds > 0


class TestErroneousClaim:
    def test_wrong_count_flagged(self, checker):
        report = checker.check_html(ERRONEOUS_HTML)
        verdict = report.verdicts[0]
        assert verdict.claim.claimed_value == 8
        assert verdict.status is VerdictStatus.ERRONEOUS
        markup = render_markup(report.verdicts)
        assert "[ERR eight ->" in markup

    def test_correct_claims_unaffected(self, checker):
        report = checker.check_html(ERRONEOUS_HTML)
        assert report.verdicts[1].status is VerdictStatus.VERIFIED
        assert report.verdicts[2].status is VerdictStatus.VERIFIED


class TestConfigurations:
    def test_naive_mode_same_verdicts(self):
        config = AggCheckerConfig(engine=ORACLE)
        checker = AggChecker(build_db(), config)
        report = checker.check_html(PAPER_HTML)
        assert [v.status for v in report.verdicts] == [VerdictStatus.VERIFIED] * 3

    def test_check_text_entrypoint(self, checker):
        report = checker.check_text(
            "NFL", ["There were 9 suspensions in the data."]
        )
        assert len(report.claims) == 1
        assert report.verdicts[0].status is VerdictStatus.VERIFIED

    def test_no_evaluations_gives_unresolved(self):
        config = AggCheckerConfig().with_em(use_evaluations=False)
        checker = AggChecker(build_db(), config)
        report = checker.check_html(PAPER_HTML)
        assert all(
            v.status is VerdictStatus.UNRESOLVED for v in report.verdicts
        )

    def test_data_dictionary_accepted(self):
        checker = AggChecker(
            build_db(),
            data_dictionary={"Games": "suspension length in games"},
        )
        report = checker.check_html(PAPER_HTML)
        assert len(report.claims) == 3
