"""One factorization per column per checker, and none kept past it.

On the columnar route, fragment extraction reads each column's distinct
values off the dictionary that the relation build then reuses; a checker
owns its join graph, so a second checker over the same ``Database``
object encodes cold again.
"""

from __future__ import annotations

import pytest

import repro.db.columnar as columnar
from repro.core.checker import AggChecker
from repro.core.config import AggCheckerConfig
from repro.db import EngineConfig, QueryEngine

ARTICLE = ["Four players were suspended indefinitely.", "Two were from Baltimore."]


@pytest.fixture()
def factorized(monkeypatch):
    """The cells of every column the columnar encoder factorizes."""
    calls = []
    original = columnar.factorize

    def counting(cells):
        calls.append(list(cells))
        return original(cells)

    monkeypatch.setattr(columnar, "factorize", counting)
    return calls


def columns_of(database):
    return [
        [row[position] for row in table.rows]
        for table in database.tables
        for position in range(len(table.columns))
    ]


def test_checker_factorizes_each_column_once(nfl_db, factorized):
    checker = AggChecker(nfl_db)
    assert factorized == columns_of(nfl_db)  # extraction: every column
    report = checker.check_text("Suspensions", ARTICLE)
    assert report.engine_stats.cube_queries > 0
    assert checker.engine.join_graph.is_materialized({"nflsuspensions"})
    assert factorized == columns_of(nfl_db)  # the relation reused them


def test_joined_relation_reuses_both_tables_dictionaries(star_db, factorized):
    checker = AggChecker(star_db)
    assert len(factorized) == 8
    relation = checker.engine.join_graph.relation({"players", "teams"})
    assert len(relation) == 6
    assert len(factorized) == 8


def test_a_second_checker_encodes_cold(nfl_db, factorized):
    AggChecker(nfl_db).check_text("Suspensions", ARTICLE)
    AggChecker(nfl_db).check_text("Suspensions", ARTICLE)
    assert factorized == columns_of(nfl_db) * 2


@pytest.mark.parametrize("backend", ["row", "sqlite"])
def test_other_backends_build_no_encoding(nfl_db, factorized, backend):
    config = AggCheckerConfig(engine=EngineConfig(backend=backend))
    checker = AggChecker(nfl_db, config)
    checker.check_text("Suspensions", ARTICLE)
    assert factorized == []
    checker.engine.close()


def test_extraction_reads_the_same_values_on_every_backend(nfl_db):
    catalogs = {}
    for backend in ("columnar", "row", "sqlite"):
        checker = AggChecker(
            nfl_db, AggCheckerConfig(engine=EngineConfig(backend=backend))
        )
        catalogs[backend] = [
            (fragment.predicate, type(fragment.predicate.value))
            for fragment in checker.catalog.predicates
        ]
        checker.engine.close()
    assert catalogs["columnar"] == catalogs["row"] == catalogs["sqlite"]


def test_engine_literal_lookup_uses_the_same_dictionary(nfl_db, factorized):
    engine = QueryEngine(nfl_db)
    assert engine.adapter.distinct_values("nflsuspensions", "Year", 3) == [
        2014, 2012, 1983,
    ]
    assert engine.adapter.distinct_values("nflsuspensions", "Team") == [
        "BAL", "NO", "CIN", "WAS", "DAL", "CLE",
    ]
    assert len(factorized) == 2
