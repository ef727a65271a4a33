"""SQL rendering, parsing, and natural-language description of claim queries.

Ground-truth annotations in the corpus are written as paper-style SQL
(``SELECT Count(*) FROM t WHERE a = 'x' AND b = 'y'``); the parser turns
them back into canonical :class:`SimpleAggregateQuery` objects. The
natural-language description mirrors the AggChecker UI's hover text
(paper Figure 3(b)).
"""

from __future__ import annotations

import re

from repro.db.aggregates import SQL_NAMES, AggregateFunction
from repro.db.predicates import Predicate
from repro.db.query import AggregateSpec, ColumnRef, STAR, SimpleAggregateQuery
from repro.db.schema import Database
from repro.db.values import Value, coerce_number
from repro.errors import SqlParseError

_QUERY_RE = re.compile(
    r"^\s*SELECT\s+(?P<fn>[A-Za-z_]+)\s*\(\s*(?P<arg>\*|[\w.]+)\s*\)\s*"
    r"FROM\s+(?P<from>.+?)"
    r"(?:\s+WHERE\s+(?P<where>.+?))?\s*;?\s*$",
    re.IGNORECASE | re.DOTALL,
)

_PREDICATE_RE = re.compile(
    r"^\s*(?P<col>[\w.]+)\s*=\s*(?P<val>'(?:[^']|'')*'|[-\w.%$]+)\s*$",
)


def render_sql(query: SimpleAggregateQuery) -> str:
    """Render a query in the paper's SQL style (condition predicate first).

    This is the *display/annotation* form: literals are inlined (with
    ``''`` escaping) and identifiers are bare, exactly as the corpus
    ground-truth files write them. Never feed this string to a real SQL
    engine — use :func:`render_sql_parameterized` for executable SQL.
    """
    tables = sorted(query.referenced_tables()) or ["T"]
    from_clause = " JOIN ".join(tables)
    select = f"SELECT {query.aggregate.function.sql_name}({_render_column(query.aggregate.column)})"
    parts = [select, f"FROM {from_clause}"]
    predicates = query.all_predicates
    if predicates:
        rendered = " AND ".join(
            f"{_render_column(p.column)} = {_render_value(p.value)}"
            for p in predicates
        )
        parts.append(f"WHERE {rendered}")
    return " ".join(parts)


def quote_identifier(name: str) -> str:
    """Quote a table or column name for executable SQL (``"`` doubling).

    Shared by every SQL storage adapter: scraped CSV headers routinely
    contain spaces, quotes, and keywords, so identifiers are always
    quoted rather than validated.
    """
    if "\x00" in name:
        raise SqlParseError(f"identifier contains NUL byte: {name!r}")
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def render_sql_parameterized(
    query: SimpleAggregateQuery,
) -> tuple[str, tuple[Value, ...]]:
    """Render a query as executable SQL with ``?`` placeholders.

    Returns ``(sql, params)`` in qmark style. Unlike :func:`render_sql`,
    identifiers are quoted and literals travel out-of-band as bind
    parameters, so hostile values in claims or scraped data cannot change
    the statement.
    """
    tables = sorted(query.referenced_tables()) or ["T"]
    from_clause = " JOIN ".join(quote_identifier(table) for table in tables)
    column = query.aggregate.column
    arg = "*" if column.is_star else quote_identifier(column.column)
    parts = [
        f"SELECT {query.aggregate.function.sql_name}({arg})",
        f"FROM {from_clause}",
    ]
    params: list[Value] = []
    predicates = query.all_predicates
    if predicates:
        clauses = []
        for predicate in predicates:
            clauses.append(f"{quote_identifier(predicate.column.column)} = ?")
            params.append(predicate.value)
        parts.append("WHERE " + " AND ".join(clauses))
    return " ".join(parts), tuple(params)


def parse_query(sql: str, database: Database) -> SimpleAggregateQuery:
    """Parse paper-style SQL into a canonical Simple Aggregate Query."""
    match = _QUERY_RE.match(sql)
    if match is None:
        raise SqlParseError(f"not a Simple Aggregate Query: {sql!r}")
    fn_name = match.group("fn").lower()
    function = SQL_NAMES.get(fn_name)
    if function is None:
        raise SqlParseError(f"unknown aggregation function {match.group('fn')!r}")
    from_tables = _parse_from(match.group("from"), database)
    column = _resolve_aggregate_column(
        match.group("arg"), function, from_tables, database
    )
    predicates = _parse_predicates(match.group("where"), from_tables, database)
    if function is AggregateFunction.CONDITIONAL_PROBABILITY:
        if not predicates:
            raise SqlParseError("ConditionalProbability requires predicates")
        condition, *event = predicates
        return SimpleAggregateQuery(
            AggregateSpec(function, column), tuple(event), condition
        )
    return SimpleAggregateQuery(AggregateSpec(function, column), tuple(predicates))


def describe_query(query: SimpleAggregateQuery) -> str:
    """Natural-language description of a query (UI hover text)."""
    fn = query.aggregate.function
    column = query.aggregate.column
    subject = "rows" if column.is_star else f"'{column.column}' values"
    head = {
        AggregateFunction.COUNT: f"the number of {subject}",
        AggregateFunction.COUNT_DISTINCT: f"the number of distinct {subject}",
        AggregateFunction.SUM: f"the sum of {subject}",
        AggregateFunction.AVG: f"the average of {subject}",
        AggregateFunction.MIN: f"the minimum of {subject}",
        AggregateFunction.MAX: f"the maximum of {subject}",
        AggregateFunction.PERCENTAGE: f"the percentage of {subject}",
        AggregateFunction.CONDITIONAL_PROBABILITY: f"the probability of {subject}",
    }[fn]
    clauses = [
        f"'{p.column.column}' is '{p.value}'" for p in query.predicates
    ]
    text = head
    if clauses:
        text += " where " + " and ".join(clauses)
    if query.condition is not None:
        text += (
            f" given that '{query.condition.column.column}' is "
            f"'{query.condition.value}'"
        )
    return text


def _render_column(column: ColumnRef) -> str:
    if column.is_star:
        return "*"
    return column.column


def _render_value(value: Value) -> str:
    if isinstance(value, (int, float)):
        return str(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def _parse_from(from_clause: str, database: Database) -> list[str]:
    text = re.sub(r"\bE-JOIN\b|\bJOIN\b|,", " ", from_clause, flags=re.IGNORECASE)
    tables = [token for token in text.split() if token]
    for name in tables:
        if not database.has_table(name):
            raise SqlParseError(f"unknown table {name!r} in FROM clause")
    if not tables:
        raise SqlParseError("empty FROM clause")
    return tables


def _resolve_aggregate_column(
    arg: str,
    function: AggregateFunction,
    from_tables: list[str],
    database: Database,
) -> ColumnRef:
    if arg == "*":
        # Single-table databases use the canonical table-less star so that
        # parsed queries compare equal to generated candidates.
        if len(database.tables) == 1:
            return STAR
        # Multi-table: bind the star to the first FROM table (determines
        # which rows Count(*) counts when predicates alone fix the join).
        return ColumnRef(from_tables[0], "*")
    return _resolve_column(arg, from_tables, database)


def _resolve_column(
    name: str, from_tables: list[str], database: Database
) -> ColumnRef:
    if "." in name:
        table, _, column = name.partition(".")
        database.table(table).column(column)
        return ColumnRef(table, column)
    candidates = [
        table_name
        for table_name in from_tables
        if database.table(table_name).has_column(name)
    ]
    if not candidates:
        candidates = [
            table.name for table in database.tables if table.has_column(name)
        ]
    if not candidates:
        raise SqlParseError(f"column {name!r} not found in any table")
    if len(candidates) > 1:
        raise SqlParseError(
            f"column {name!r} is ambiguous across tables {candidates}"
        )
    return ColumnRef(candidates[0], name)


def _parse_predicates(
    where: str | None, from_tables: list[str], database: Database
) -> list[Predicate]:
    if not where:
        return []
    parts = _split_conjunction(where)
    predicates = []
    for part in parts:
        match = _PREDICATE_RE.match(part)
        if match is None:
            raise SqlParseError(f"not a unary equality predicate: {part!r}")
        column = _resolve_column(match.group("col"), from_tables, database)
        predicates.append(Predicate(column, _parse_value(match.group("val"))))
    return predicates


def _split_conjunction(where: str) -> list[str]:
    """Split on AND outside of quoted strings."""
    parts: list[str] = []
    current: list[str] = []
    in_quote = False
    tokens = re.split(r"(\s+[Aa][Nn][Dd]\s+|')", where)
    for token in tokens:
        if token == "'":
            in_quote = not in_quote
            current.append(token)
        elif not in_quote and re.fullmatch(r"\s+[Aa][Nn][Dd]\s+", token or ""):
            parts.append("".join(current))
            current = []
        else:
            current.append(token or "")
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _parse_value(text: str) -> Value:
    if text.startswith("'") and text.endswith("'"):
        return text[1:-1].replace("''", "'")
    number = coerce_number(text)
    if number is not None:
        return number
    return text
