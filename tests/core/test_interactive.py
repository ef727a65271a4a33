"""Unit tests for the interactive verification session."""

from __future__ import annotations

import pytest

from repro.core import AggChecker
from repro.core.interactive import ResolutionFeature
from repro.db import Column, ColumnType, Database, Table, parse_query
from repro.errors import CheckerError

from tests.conftest import NFL_ROWS

PAPER_HTML = """
<title>The NFL's Uneven History Of Punishing Domestic Violence</title>
<h1>Lifetime bans</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"""


@pytest.fixture()
def checker():
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
    return AggChecker(Database("nfl", [table]))


@pytest.fixture()
def session(checker):
    report = checker.check_html(PAPER_HTML)
    return checker.interactive(report)


class TestSuggestions:
    def test_topk_with_descriptions(self, session):
        claim = session.report.claims[0]
        suggestions = session.suggestions(claim, k=5)
        assert len(suggestions) == 5
        query, description, probability = suggestions[0]
        assert "number of rows" in description
        assert 0 < probability <= 1

    def test_pending_initially_all(self, session):
        assert len(session.pending()) == 3


class TestForRank:
    @pytest.mark.parametrize(
        "rank, feature",
        [
            (1, ResolutionFeature.TOP_1),
            (2, ResolutionFeature.TOP_5),
            (5, ResolutionFeature.TOP_5),
            (6, ResolutionFeature.TOP_10),
            (10, ResolutionFeature.TOP_10),
            (11, ResolutionFeature.CUSTOM),
            (None, ResolutionFeature.CUSTOM),
        ],
    )
    def test_rank_picks_the_feature(self, rank, feature):
        assert ResolutionFeature.for_rank(rank) is feature


class TestResolution:
    def test_accept_top(self, session):
        claim = session.report.claims[0]
        resolution = session.accept_top(claim)
        assert resolution.feature is ResolutionFeature.TOP_1
        assert resolution.feature.clicks == 1
        assert resolution.claim_is_correct
        assert len(session.pending()) == 2

    def test_select_rank_feature_boundaries(self, session):
        claim = session.report.claims[1]
        assert len(session.suggestions(claim, k=11)) == 11
        assert (
            session.select_rank(claim, 3).feature is ResolutionFeature.TOP_5
        )
        assert (
            session.select_rank(claim, 7).feature is ResolutionFeature.TOP_10
        )
        # The UI lists the top 10: the 11th candidate is a custom query.
        resolution = session.select_rank(claim, 11)
        assert resolution.feature is ResolutionFeature.CUSTOM
        assert resolution.feature.clicks == 5

    def test_select_rank_out_of_range(self, session):
        claim = session.report.claims[0]
        with pytest.raises(CheckerError):
            session.select_rank(claim, 10**9)

    def test_custom_query_evaluated_by_engine(self, checker, session):
        claim = session.report.claims[0]
        query = parse_query(
            "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'",
            checker.database,
        )
        resolution = session.set_custom(claim, query)
        assert resolution.feature is ResolutionFeature.CUSTOM
        assert resolution.result == 4
        assert resolution.claim_is_correct

    def test_custom_query_detects_error(self, checker, session):
        claim = session.report.claims[0]  # claims 'four'
        query = parse_query(
            "SELECT Count(*) FROM nflsuspensions WHERE Games = '16'",
            checker.database,
        )
        resolution = session.set_custom(claim, query)
        assert resolution.result == 4  # four 16-game suspensions
        assert resolution.claim_is_correct  # coincidentally matches

    def test_custom_numeric_predicate_matches_float_cells(self):
        # ``Price = 10`` parses to the int 10; the NUMERIC cells are the
        # float 10.0, whose literal is "10.0". Three predicates put the
        # query outside the claim's space, so the engine's cube answers it
        # and must still count those cells, as the executor does.
        table = Table(
            "menu",
            [
                Column("Dish"),
                Column("Course"),
                Column("Meal"),
                Column("Price", ColumnType.NUMERIC),
            ],
            [
                ("soup", "main", "dinner", 10.0),
                ("stew", "main", "dinner", 10.0),
                ("steak", "main", "dinner", 24.5),
                ("salad", "starter", "lunch", 10.0),
            ],
        )
        checker = AggChecker(Database("menu", [table]))
        report = checker.check_html("<p>Two dinner mains cost ten dollars.</p>")
        session = checker.interactive(report)
        query = parse_query(
            "SELECT Count(*) FROM menu WHERE Course = 'main' "
            "AND Meal = 'dinner' AND Price = 10",
            checker.database,
        )
        assert {p.column.column: p.value for p in query.predicates}["Price"] == 10
        cubes = session.engine.stats.cube_queries
        resolution = session.set_custom(report.claims[0], query)
        assert session.engine.stats.cube_queries == cubes + 1
        assert resolution.result == 2
        assert resolution.claim_is_correct

    def test_resolution_recorded_once_per_claim(self, session):
        claim = session.report.claims[0]
        session.accept_top(claim)
        session.select_rank(claim, 2)
        assert len(session.resolutions()) == 1

    def test_custom_without_engine_raises(self, checker):
        from repro.core import InteractiveSession

        report = checker.check_html(PAPER_HTML)
        session = InteractiveSession(report)  # no engine attached
        query = parse_query(
            "SELECT Sum(Year) FROM nflsuspensions WHERE Team = 'ZZZ'",
            checker.database,
        )
        with pytest.raises(CheckerError):
            session.set_custom(report.claims[0], query)
