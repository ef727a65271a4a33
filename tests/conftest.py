"""Shared fixtures: the paper's running example and a multi-table schema."""

from __future__ import annotations

import pytest

from repro.db import Column, ColumnType, Database, ForeignKey, Table


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "faults: fault-injection / resilience test (CI runs this subset "
        "as its own job via -m faults)",
    )


def outcome_from(space, results, scoped=None):
    """An ``EvaluationOutcome`` for ``space`` from a ``{query: value}``
    mapping, built the way production builds one: a ``SpaceResults`` filled
    by position, then ``from_value_ids``. Queries outside the space are
    ignored; ``scoped`` (queries) restricts which candidates count as
    evaluated.
    """
    import numpy as np

    from repro.db.gather import SpaceResults
    from repro.model.probability import EvaluationOutcome

    filled = SpaceResults.for_space(space)
    for query, value in results.items():
        position = space.position_of(query)
        if position is not None:
            filled.set_value(position, value)
    mask = None
    if scoped is not None:
        found = map(space.position_of, scoped)
        mask = np.zeros(len(space), dtype=bool)
        mask[[position for position in found if position is not None]] = True
    return EvaluationOutcome.from_value_ids(
        space, filled, mask, pool_nonempty=bool(results)
    )


NFL_ROWS = [
    ("Ray Rice", "BAL", "2", "domestic violence", 2014),
    ("Sean Payton", "NO", "16", "bounty scandal", 2012),
    ("Art Schlichter", "BAL", "indef", "gambling", 1983),
    ("Stanley Wilson", "CIN", "indef", "substance abuse, repeated offense", 1989),
    ("Dexter Manley", "WAS", "indef", "substance abuse, repeated offense", 1991),
    ("Roy Tarpley", "DAL", "indef", "substance abuse, repeated offense", 1995),
    ("Adam Jones", "CIN", "16", "personal conduct", 2007),
    ("Tanard Jackson", "WAS", "16", "substance abuse", 2012),
    ("Josh Gordon", "CLE", "16", "substance abuse", 2014),
]


@pytest.fixture()
def nfl_table() -> Table:
    """The NFL-suspensions table from the paper's Figure 2."""
    return Table(
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


@pytest.fixture()
def nfl_db(nfl_table: Table) -> Database:
    return Database("nfl", [nfl_table])


@pytest.fixture()
def star_db() -> Database:
    """Two tables joined by a foreign key: players -> teams."""
    teams = Table(
        "teams",
        [Column("team_id"), Column("city"), Column("league")],
        [
            ("t1", "boston", "east"),
            ("t2", "dallas", "west"),
            ("t3", "miami", "east"),
        ],
        primary_key="team_id",
    )
    players = Table(
        "players",
        [
            Column("player_id"),
            Column("team"),
            Column("position"),
            Column("salary", ColumnType.NUMERIC),
            Column("goals", ColumnType.NUMERIC),
        ],
        [
            ("p1", "t1", "guard", 120.0, 10),
            ("p2", "t1", "center", 80.0, 4),
            ("p3", "t2", "guard", 95.0, 7),
            ("p4", "t2", "forward", 60.0, 2),
            ("p5", "t3", "guard", 150.0, 12),
            ("p6", "t3", "forward", None, 0),
        ],
        primary_key="player_id",
    )
    return Database(
        "sports",
        [players, teams],
        [ForeignKey("players", "team", "teams", "team_id")],
    )
