"""Cross-cutting property tests for the db substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    AggregateFunction,
    AggregateSpec,
    CubeQuery,
    STAR,
    execute_query,
    parse_query,
    render_sql,
)
from repro.db.cube import ALL
from repro.db.refs import ColumnRef

from tests.db.oracle import run_cube
from tests.db.strategies import claim_queries, small_databases

COUNT_STAR = AggregateSpec(AggregateFunction.COUNT, STAR)
CATEGORY = ColumnRef("facts", "category")
FLAG = ColumnRef("facts", "flag")


@settings(max_examples=60, deadline=None)
@given(database=small_databases(), query=claim_queries())
def test_sql_roundtrip(database, query):
    """Property: render -> parse is the identity on claim queries.

    Queries referencing no table at all (a bare table-less ``Count(*)``)
    render with a placeholder FROM clause and are excluded: their table
    binding only exists relative to a database.
    """
    if not query.referenced_tables():
        return
    sql = render_sql(query)
    assert parse_query(sql, database) == query


@settings(max_examples=40, deadline=None)
@given(database=small_databases())
def test_cube_children_sum_to_parent(database):
    """Property: for counts, the ALL cell equals the sum of all cells of
    the fully-specified dimension (CUBE rollup consistency)."""
    literals = {
        CATEGORY: frozenset({"alpha", "beta", "gamma", "delta"}),
    }
    cube = CubeQuery(
        tables=frozenset({"facts"}),
        dimensions=(CATEGORY,),
        literals=((CATEGORY, literals[CATEGORY]),),
        aggregates=(COUNT_STAR,),
    )
    result = run_cube(database, cube)
    total = result.value(COUNT_STAR, {})
    by_value = sum(
        count
        for key, count in result.cells_for(COUNT_STAR).items()
        if key[0] is not ALL
    )
    assert total == by_value


@settings(max_examples=40, deadline=None)
@given(database=small_databases(), query=claim_queries())
def test_adding_a_predicate_never_increases_count(database, query):
    """Property: counts are antitone in the predicate set."""
    if query.aggregate.function is not AggregateFunction.COUNT:
        return
    base = query.with_predicates(())
    full = execute_query(database, query)
    unrestricted = execute_query(database, base)
    assert full <= unrestricted


@settings(max_examples=40, deadline=None)
@given(database=small_databases(), query=claim_queries())
def test_percentage_bounded(database, query):
    """Property: Percentage results lie in [0, 100] (or NULL)."""
    if query.aggregate.function is not AggregateFunction.PERCENTAGE:
        return
    result = execute_query(database, query)
    if result is not None:
        assert 0.0 <= result <= 100.0 + 1e-9
