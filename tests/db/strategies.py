"""Hypothesis strategies for random databases and claim queries."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.db import (
    AggregateFunction,
    AggregateSpec,
    Column,
    ColumnRef,
    ColumnType,
    Database,
    ForeignKey,
    Predicate,
    STAR,
    SimpleAggregateQuery,
    Table,
)

CATEGORIES = ["alpha", "beta", "gamma", "delta"]
FLAGS = ["yes", "no", "maybe"]
LEAGUES = ["east", "west"]
POSITIONS = ["guard", "center", "forward"]

#: Cells that stress normalization and numeric coercion: mixed case,
#: whitespace, separators, currency/percent markers, and non-numeric noise.
MESSY_NUMERICS = ["1,200", "$40", "12%", "(3)", "n/a", "  7  ", ""]

#: An integer no float can hold (``float(10**400)`` raises). Every tier
#: must treat it, and the string that spells it, as present but
#: non-numeric instead of overflowing part-way through a scan.
BEYOND_FLOAT = 10**400

NON_RATIO = [
    AggregateFunction.COUNT,
    AggregateFunction.COUNT_DISTINCT,
    AggregateFunction.SUM,
    AggregateFunction.AVG,
    AggregateFunction.MIN,
    AggregateFunction.MAX,
]


@st.composite
def small_databases(draw) -> Database:
    """A single-table database with two string dims and one numeric column."""
    n_rows = draw(st.integers(min_value=0, max_value=30))
    rows = []
    for _ in range(n_rows):
        rows.append(
            (
                draw(st.sampled_from(CATEGORIES) | st.none()),
                draw(st.sampled_from(FLAGS)),
                draw(
                    st.integers(min_value=-50, max_value=50)
                    | st.none()
                ),
            )
        )
    table = Table(
        "facts",
        [
            Column("category"),
            Column("flag"),
            Column("amount", ColumnType.NUMERIC),
        ],
        rows,
    )
    return Database("rand", [table])


@st.composite
def claim_queries(draw) -> SimpleAggregateQuery:
    """A random Simple Aggregate Query against the ``facts`` table."""
    function = draw(st.sampled_from(NON_RATIO + [AggregateFunction.PERCENTAGE]))
    if function in (AggregateFunction.COUNT, AggregateFunction.PERCENTAGE) and draw(
        st.booleans()
    ):
        column = STAR
    else:
        if function.needs_numeric_column:
            column = ColumnRef("facts", "amount")
        else:
            column = draw(
                st.sampled_from(
                    [
                        ColumnRef("facts", "category"),
                        ColumnRef("facts", "flag"),
                        ColumnRef("facts", "amount"),
                    ]
                )
            )
    predicates = []
    if draw(st.booleans()):
        predicates.append(
            Predicate(ColumnRef("facts", "category"), draw(st.sampled_from(CATEGORIES)))
        )
    if draw(st.booleans()):
        predicates.append(
            Predicate(ColumnRef("facts", "flag"), draw(st.sampled_from(FLAGS)))
        )
    return SimpleAggregateQuery(AggregateSpec(function, column), tuple(predicates))


@st.composite
def nullheavy_databases(draw, signed_zeros: bool = True) -> Database:
    """A single-table database where most cells are NULL or messy strings.

    ``signed_zeros=False`` is for suites that hold a cube route to the
    NAIVE one: NAIVE compares a non-string predicate value numerically
    (``0 == 0.0 == -0.0``), a cube by normalized literal, so one number
    spelled two ways in a column tells the two routes apart on any backend.
    """
    n_rows = draw(st.integers(min_value=0, max_value=25))
    cell = st.none() | st.sampled_from(CATEGORIES) | st.just("  ")
    amount = (
        st.none()
        | st.integers(min_value=-9, max_value=9)
        | st.sampled_from(MESSY_NUMERICS)
        | st.sampled_from([BEYOND_FLOAT, str(BEYOND_FLOAT)])
    )
    if signed_zeros:
        # Equal as numbers, two cells as text ("0.0", "-0.0"): an encoder
        # that memoises per ``==`` lets the first one name both.
        amount |= st.sampled_from([0.0, -0.0])
    rows = [
        (draw(cell), draw(st.sampled_from(FLAGS) | st.none()), draw(amount))
        for _ in range(n_rows)
    ]
    table = Table(
        "facts",
        [
            Column("category"),
            Column("flag"),
            Column("amount", ColumnType.NUMERIC),
        ],
        rows,
    )
    return Database("nullheavy", [table])


@st.composite
def joined_databases(draw) -> Database:
    """A two-table players -> teams database with NULL join keys and
    dangling foreign keys (rows both sides drop during the equi-join)."""
    n_teams = draw(st.integers(min_value=1, max_value=4))
    team_ids = [f"t{i}" for i in range(n_teams)]
    teams = Table(
        "teams",
        [Column("team_id"), Column("league")],
        [
            (team_id, draw(st.sampled_from(LEAGUES) | st.none()))
            for team_id in team_ids
        ],
        primary_key="team_id",
    )
    n_players = draw(st.integers(min_value=0, max_value=25))
    key = st.sampled_from(team_ids + ["t-dangling"]) | st.none()
    salary = st.none() | st.integers(min_value=0, max_value=500)
    players = Table(
        "players",
        [
            Column("player_id"),
            Column("team"),
            Column("position"),
            Column("salary", ColumnType.NUMERIC),
        ],
        [
            (
                f"p{i}",
                draw(key),
                draw(st.sampled_from(POSITIONS)),
                draw(salary),
            )
            for i in range(n_players)
        ],
        primary_key="player_id",
    )
    return Database(
        "sports",
        [players, teams],
        [ForeignKey("players", "team", "teams", "team_id")],
    )


@st.composite
def joined_queries(draw) -> SimpleAggregateQuery:
    """A query whose predicates span the players -> teams join."""
    function = draw(st.sampled_from(NON_RATIO + [AggregateFunction.PERCENTAGE]))
    if function.needs_numeric_column:
        column = ColumnRef("players", "salary")
    elif draw(st.booleans()) and function in (
        AggregateFunction.COUNT,
        AggregateFunction.PERCENTAGE,
    ):
        column = STAR
    else:
        column = draw(
            st.sampled_from(
                [
                    ColumnRef("players", "position"),
                    ColumnRef("players", "salary"),
                    ColumnRef("teams", "league"),
                ]
            )
        )
    predicates = []
    if draw(st.booleans()):
        predicates.append(
            Predicate(
                ColumnRef("teams", "league"),
                draw(st.sampled_from(LEAGUES + ["nowhere"])),
            )
        )
    if draw(st.booleans()):
        predicates.append(
            Predicate(
                ColumnRef("players", "position"), draw(st.sampled_from(POSITIONS))
            )
        )
    if not predicates and column.is_star:
        # A table-less star is ambiguous on a two-table database.
        column = ColumnRef("players", "*")
    return SimpleAggregateQuery(AggregateSpec(function, column), tuple(predicates))


@st.composite
def conditional_queries(draw) -> SimpleAggregateQuery:
    """A random ConditionalProbability query (condition on category)."""
    condition = Predicate(
        ColumnRef("facts", "category"), draw(st.sampled_from(CATEGORIES))
    )
    event = Predicate(ColumnRef("facts", "flag"), draw(st.sampled_from(FLAGS)))
    return SimpleAggregateQuery(
        AggregateSpec(AggregateFunction.CONDITIONAL_PROBABILITY, STAR),
        (event,),
        condition,
    )


#: Spellings of one number (1200) as int, float and strings, so a single
#: column can hold them side by side.
_ONE_NUMBER = [1200, 1200.0, "1200", "1,200", "$1,200", " 1200.0 ", "1.2e3"]


def shadow_cells() -> st.SearchStrategy:
    """Cells that stress every scalar rule the SQL shadow columns encode:
    missingness, normalization, coercion (value *and* type), and the
    string-versus-number sides of ``values_equal``."""
    return (
        st.none()
        | st.sampled_from(["", "   ", "Alpha", "  alpha ", "ALPHA", "ĿATTE"])
        | st.sampled_from(MESSY_NUMERICS + ["(45)", "-0.0", "inf", "nan"])
        | st.sampled_from(_ONE_NUMBER)
        | st.booleans()
        | st.sampled_from([float("nan"), float("inf"), 0.0, -0.0, 2.5])
        | st.integers(min_value=-5, max_value=5)
        | st.sampled_from([2**63, -(2**64), 2**63 - 1, BEYOND_FLOAT])
        | st.sampled_from([str(2**63), str(BEYOND_FLOAT)])
    )
