"""Unit tests for the naive executor (reference semantics)."""

from __future__ import annotations

import pytest

from repro.db import execute_query, parse_query


def run(db, sql):
    return execute_query(db, parse_query(sql, db))


class TestCountFamily:
    def test_count_star_no_predicates(self, nfl_db):
        assert run(nfl_db, "SELECT Count(*) FROM nflsuspensions") == 9

    def test_count_star_with_predicate(self, nfl_db):
        assert (
            run(
                nfl_db,
                "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef'",
            )
            == 4
        )

    def test_count_two_predicates(self, nfl_db):
        assert (
            run(
                nfl_db,
                "SELECT Count(*) FROM nflsuspensions WHERE Games = 'indef' "
                "AND Category = 'substance abuse, repeated offense'",
            )
            == 3
        )

    def test_count_predicate_case_insensitive(self, nfl_db):
        assert (
            run(
                nfl_db,
                "SELECT Count(*) FROM nflsuspensions WHERE Team = 'bal'",
            )
            == 2
        )

    def test_count_column_skips_nulls(self, star_db):
        assert run(star_db, "SELECT Count(salary) FROM players") == 5

    def test_count_distinct(self, nfl_db):
        assert run(nfl_db, "SELECT CountDistinct(Team) FROM nflsuspensions") == 6

    def test_count_empty_selection(self, nfl_db):
        assert (
            run(
                nfl_db,
                "SELECT Count(*) FROM nflsuspensions WHERE Team = 'XXX'",
            )
            == 0
        )


class TestNumericAggregates:
    def test_sum(self, star_db):
        assert run(star_db, "SELECT Sum(goals) FROM players") == 35

    def test_avg(self, star_db):
        assert run(star_db, "SELECT Avg(salary) FROM players") == pytest.approx(101.0)

    def test_min_max(self, star_db):
        assert run(star_db, "SELECT Min(salary) FROM players") == 60.0
        assert run(star_db, "SELECT Max(salary) FROM players") == 150.0

    def test_sum_adds_plainly_in_row_order(self):
        """No compensated summation (builtin ``sum()`` on Python 3.12+
        would keep the 0.1): the rule ``bincount(weights=...)`` follows."""
        from repro.db.aggregates import AggregateFunction, compute_plain

        cells = [1e16, 0.1, -1e16, 2]
        assert compute_plain(AggregateFunction.SUM, cells) == 2.0
        assert compute_plain(AggregateFunction.AVG, cells) == 0.5
        total = compute_plain(AggregateFunction.SUM, [1, "2", 3])
        assert type(total) is int and total == 6

    def test_sum_empty_is_null(self, star_db):
        assert (
            run(
                star_db,
                "SELECT Sum(salary) FROM players WHERE position = 'goalie'",
            )
            is None
        )

    def test_numeric_predicate(self, nfl_db):
        assert (
            run(nfl_db, "SELECT Count(*) FROM nflsuspensions WHERE Year = 2014")
            == 2
        )


class TestRatioFunctions:
    def test_percentage(self, nfl_db):
        result = run(
            nfl_db,
            "SELECT Percentage(*) FROM nflsuspensions WHERE Games = 'indef'",
        )
        assert result == pytest.approx(100.0 * 4 / 9)

    def test_percentage_no_predicates_is_100(self, nfl_db):
        assert run(nfl_db, "SELECT Percentage(*) FROM nflsuspensions") == 100.0

    def test_percentage_of_column_ignores_nulls(self, star_db):
        result = run(
            star_db,
            "SELECT Percentage(salary) FROM players WHERE position = 'guard'",
        )
        assert result == pytest.approx(100.0 * 3 / 5)

    def test_conditional_probability(self, nfl_db):
        result = run(
            nfl_db,
            "SELECT ConditionalProbability(*) FROM nflsuspensions "
            "WHERE Games = 'indef' AND Category = 'gambling'",
        )
        assert result == pytest.approx(25.0)

    def test_conditional_probability_empty_condition_is_null(self, nfl_db):
        result = run(
            nfl_db,
            "SELECT ConditionalProbability(*) FROM nflsuspensions "
            "WHERE Team = 'XXX' AND Category = 'gambling'",
        )
        assert result is None


class TestJoinQueries:
    def test_aggregate_over_join(self, star_db):
        result = run(
            star_db,
            "SELECT Sum(salary) FROM players JOIN teams WHERE league = 'east'",
        )
        assert result == pytest.approx(120.0 + 80.0 + 150.0)

    def test_count_star_over_join(self, star_db):
        result = run(
            star_db,
            "SELECT Count(*) FROM players JOIN teams WHERE city = 'dallas'",
        )
        assert result == 2

    def test_join_inferred_from_columns(self, star_db):
        # No explicit mention of teams in FROM: qualified column pulls it in.
        result = run(
            star_db,
            "SELECT Count(*) FROM players WHERE teams.city = 'boston'",
        )
        assert result == 2
