"""Direct (naive) execution of Simple Aggregate Queries.

This is the reference semantics (``NAIVE`` on the ``row`` backend): every
cube route is property-tested against it. One call evaluates one query by
materializing the row-wise joined relation, filtering by predicates, and
computing the aggregate. Ratio functions evaluate the count queries from
the paper's footnote 1 definition.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.db.aggregates import AggregateFunction, compute_plain, ratio_value
from repro.db.joins import JoinGraph, Relation
from repro.db.predicates import Predicate
from repro.db.query import SimpleAggregateQuery
from repro.db.schema import Database
from repro.db.values import Value, is_missing
from repro.errors import QueryError


def execute_query(
    database: Database,
    query: SimpleAggregateQuery,
    join_graph: JoinGraph | None = None,
) -> Value:
    """Evaluate one Simple Aggregate Query; returns a number or NULL."""
    graph = join_graph or JoinGraph(database)
    relation = base_relation(database, query, graph)
    if query.aggregate.function.is_ratio:
        return _ratio(relation, query)
    cells = _filtered_cells(relation, query.aggregate, query.all_predicates)
    return compute_plain(query.aggregate.function, cells)


def base_relation(
    database: Database,
    query: SimpleAggregateQuery,
    graph: JoinGraph,
) -> Relation:
    """The joined relation implied by the query's referenced columns."""
    tables = query.referenced_tables()
    if not tables:
        # Count(*) with no predicates on a table-less star: only meaningful
        # for single-table databases.
        if len(database.tables) != 1:
            raise QueryError(
                "table-less query is ambiguous on a multi-table database"
            )
        tables = frozenset({database.tables[0].name})
    return graph.relation(tables)


def count_matching(
    relation: Relation,
    aggregate_column,  # ColumnRef
    predicates: Sequence[Predicate],
) -> int:
    """Count rows satisfying ``predicates``; for a real aggregation column,
    only rows where that column is non-missing (SQL ``Count(col)``)."""
    predicate_indexes = [
        (relation.column_index(predicate.column), predicate)
        for predicate in predicates
    ]
    if aggregate_column.is_star:
        column_index = None
    else:
        column_index = relation.column_index(aggregate_column)
    total = 0
    for row in relation.rows:
        if any(not p.matches(row[i]) for i, p in predicate_indexes):
            continue
        if column_index is not None and is_missing(row[column_index]):
            continue
        total += 1
    return total


def _filtered_cells(
    relation: Relation,
    aggregate,  # AggregateSpec
    predicates: Sequence[Predicate],
) -> list[Value]:
    predicate_indexes = [
        (relation.column_index(predicate.column), predicate)
        for predicate in predicates
    ]
    star = aggregate.column.is_star
    column_index = None if star else relation.column_index(aggregate.column)
    cells: list[Value] = []
    for row in relation.rows:
        if any(not p.matches(row[i]) for i, p in predicate_indexes):
            continue
        # Count(*) counts rows; represent each row by a non-missing marker.
        cells.append(1 if star else row[column_index])
    return cells


def _ratio(relation: Relation, query: SimpleAggregateQuery) -> Value:
    fn = query.aggregate.function
    column = query.aggregate.column
    if fn is AggregateFunction.PERCENTAGE:
        numerator = count_matching(relation, column, query.all_predicates)
        denominator = count_matching(relation, column, ())
    else:  # CONDITIONAL_PROBABILITY: condition is the denominator filter
        assert query.condition is not None
        numerator = count_matching(relation, column, query.all_predicates)
        denominator = count_matching(relation, column, (query.condition,))
    return ratio_value(numerator, denominator)
