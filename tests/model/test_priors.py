"""Unit and property tests for the document priors Θ."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import AggregateFunction, AggregateSpec, ColumnRef, Predicate, STAR
from repro.db.query import SimpleAggregateQuery
from repro.fragments import extract_fragments
from repro.model import Priors

GAMES = ColumnRef("nflsuspensions", "Games")
CATEGORY = ColumnRef("nflsuspensions", "Category")


def count_star(*predicates):
    return SimpleAggregateQuery(
        AggregateSpec(AggregateFunction.COUNT, STAR), tuple(predicates)
    )


@pytest.fixture()
def catalog(nfl_db):
    return extract_fragments(nfl_db)


class TestUniform:
    def test_functions_sum_to_one(self, catalog):
        priors = Priors.uniform(catalog)
        assert sum(priors.functions.values()) == pytest.approx(1.0)

    def test_columns_sum_to_one(self, catalog):
        priors = Priors.uniform(catalog)
        assert sum(priors.columns.values()) == pytest.approx(1.0)

    def test_restrictions_uniform(self, catalog):
        priors = Priors.uniform(catalog)
        values = set(priors.restrictions.values())
        assert len(values) == 1


class TestUpdate:
    def test_counts_reflected(self, catalog):
        priors = Priors.uniform(catalog)
        queries = [
            count_star(Predicate(GAMES, "indef")),
            count_star(Predicate(GAMES, "indef"), Predicate(CATEGORY, "gambling")),
            count_star(Predicate(GAMES, "16")),
        ]
        updated = priors.update_from(queries)
        # All three queries are counts: Count prior dominates.
        assert updated.functions[AggregateFunction.COUNT] == max(
            updated.functions.values()
        )
        # Games restricted 3x, Category 1x.
        assert updated.restrictions[GAMES] > updated.restrictions[CATEGORY]

    def test_paper_convergence_pattern(self, catalog):
        """Table 2 of the paper: priors concentrate on the document theme."""
        priors = Priors.uniform(catalog)
        theme = [count_star(Predicate(GAMES, "indef")) for _ in range(11)]
        other = [count_star(Predicate(CATEGORY, "gambling")) for _ in range(2)]
        updated = priors.update_from(theme + other)
        assert updated.restrictions[GAMES] == pytest.approx(
            (11 + 0.5) / (13 + 1.0)
        )

    def test_smoothing_keeps_positive(self, catalog):
        priors = Priors.uniform(catalog).update_from(
            [count_star(Predicate(GAMES, "indef"))]
        )
        assert all(p > 0 for p in priors.functions.values())
        assert all(p > 0 for p in priors.columns.values())
        assert all(0 < p < 1 for p in priors.restrictions.values())

    def test_functions_still_sum_to_one(self, catalog):
        priors = Priors.uniform(catalog).update_from(
            [count_star(Predicate(GAMES, "indef"))] * 5
        )
        assert sum(priors.functions.values()) == pytest.approx(1.0)

    def test_empty_update(self, catalog):
        priors = Priors.uniform(catalog).update_from([])
        assert sum(priors.functions.values()) == pytest.approx(1.0)


class TestDistance:
    def test_zero_to_self(self, catalog):
        priors = Priors.uniform(catalog)
        assert priors.distance(priors) == 0.0

    def test_moves_after_update(self, catalog):
        priors = Priors.uniform(catalog)
        updated = priors.update_from([count_star(Predicate(GAMES, "indef"))] * 9)
        assert priors.distance(updated) > 0.1

    def test_symmetric(self, catalog):
        a = Priors.uniform(catalog)
        b = a.update_from([count_star()])
        assert a.distance(b) == pytest.approx(b.distance(a))


class TestAccessors:
    def test_unknown_keys_get_min_prior(self, catalog):
        priors = Priors.uniform(catalog)
        unknown = ColumnRef("zzz", "zzz")
        assert priors.column_prior(unknown) > 0
        assert 0 < priors.restriction_prior(unknown) < 1

    def test_log_tables_are_logs_of_the_scalar_accessors(self, catalog):
        """The E-step's gather tables, slot by slot, fallback slot last."""
        import math

        priors = Priors.uniform(catalog).update_from(
            [count_star(Predicate(GAMES, "indef")), count_star()]
        )
        fn_table, col_table, odds_table = priors.log_tables()
        layout = priors.layout()
        unknown = ColumnRef("zzz", "zzz")

        def log_odds(column):
            p = priors.restriction_prior(column)
            return math.log(p) - math.log(1.0 - p)

        assert len(fn_table) == len(layout.fn_slot) + 1
        for function, slot in layout.fn_slot.items():
            assert fn_table[slot] == math.log(priors.function_prior(function))
        for column, slot in layout.col_slot.items():
            assert col_table[slot] == math.log(priors.column_prior(column))
        assert col_table[-1] == math.log(priors.column_prior(unknown))
        for column, slot in layout.odds_slot.items():
            assert odds_table[slot] == log_odds(column)
        assert odds_table[-1] == log_odds(unknown)


@settings(max_examples=30, deadline=None)
@given(n_games=st.integers(min_value=0, max_value=20), n_cat=st.integers(min_value=0, max_value=20))
def test_restriction_priors_monotone_in_counts(n_games, n_cat):
    """Property: more restrictions on a column -> higher prior."""
    from repro.db import Column, ColumnType, Database, Table

    table = Table(
        "nflsuspensions",
        [Column("Games"), Column("Category"), Column("Year", ColumnType.NUMERIC)],
        [("indef", "gambling", 2000)],
    )
    catalog = extract_fragments(Database("nfl", [table]))
    priors = Priors.uniform(catalog)
    queries = [count_star(Predicate(GAMES, "indef"))] * n_games + [
        count_star(Predicate(CATEGORY, "gambling"))
    ] * n_cat
    updated = priors.update_from(queries)
    if n_games > n_cat:
        assert updated.restrictions[GAMES] > updated.restrictions[CATEGORY]
    elif n_games < n_cat:
        assert updated.restrictions[GAMES] < updated.restrictions[CATEGORY]
    else:
        assert updated.restrictions[GAMES] == pytest.approx(
            updated.restrictions[CATEGORY]
        )
