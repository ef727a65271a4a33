"""Fragment extraction from a database (paper Function IndexFragments).

For a new database we form: one fragment per aggregation function; one
aggregation-column fragment per numeric column (plus ``*`` for counts);
one equality-predicate fragment per (column, value) pair. Keywords come
from decomposed identifiers, cell values, synonyms, and data-dictionary
descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.adapters.base import StorageAdapter
from repro.db.aggregates import AggregateFunction
from repro.db.predicates import Predicate
from repro.db.refs import STAR, ColumnRef
from repro.db.schema import ColumnType, Database, Table
from repro.db.values import Value
from repro.fragments.fragments import (
    FUNCTION_KEYWORDS,
    ColumnFragment,
    FragmentCatalog,
    FunctionFragment,
    PredicateFragment,
)
from repro.ir.analysis import tokenize
from repro.nlp.decompose import abbreviation_expansions, decompose_identifier
from repro.nlp.wordnet import synonyms


@dataclass(frozen=True)
class ExtractionConfig:
    """Controls fragment extraction.

    ``max_distinct_per_column`` bounds predicate fragments per column
    (columns with more distinct values — free text, identifiers — are
    usually not claim predicates and would bloat the index).
    ``use_synonyms`` widens fragment keyword sets via the lexicon
    (paper Section 4.2 uses WordNet for this).
    """

    max_distinct_per_column: int = 100
    include_numeric_predicates: bool = True
    use_synonyms: bool = True


def extract_fragments(
    database: Database,
    config: ExtractionConfig | None = None,
    data_dictionary: dict[str, str] | None = None,
    adapter: StorageAdapter | None = None,
) -> FragmentCatalog:
    """Build the full fragment catalog for a database.

    Predicate values come from ``adapter``'s
    :meth:`~repro.db.adapters.base.StorageAdapter.distinct_values` (the
    checker passes its engine's, so the columnar route reads the column
    dictionaries its relations reuse), else from each table's own scan.
    """
    config = config or ExtractionConfig()
    dictionary = {
        name.strip().lower(): description
        for name, description in (data_dictionary or {}).items()
    }
    functions = [
        FunctionFragment(keywords=FUNCTION_KEYWORDS[function], function=function)
        for function in AggregateFunction
    ]
    columns: list[ColumnFragment] = []
    predicates: list[PredicateFragment] = []
    single_table = len(database.tables) == 1
    for table in database.tables:
        star_column = STAR if single_table else ColumnRef(table.name, "*")
        columns.append(
            ColumnFragment(
                keywords=_star_keywords(table, config),
                column=star_column,
            )
        )
        for column in table.columns:
            name_words = _identifier_keywords(
                table, column.name, config, dictionary
            )
            if column.type is ColumnType.NUMERIC:
                columns.append(
                    ColumnFragment(
                        keywords=name_words,
                        column=ColumnRef(table.name, column.name),
                    )
                )
            if (
                column.type is ColumnType.NUMERIC
                and not config.include_numeric_predicates
            ):
                continue
            limit = config.max_distinct_per_column + 1
            values = (
                table.distinct_values(column.name, limit)
                if adapter is None
                else adapter.distinct_values(table.name, column.name, limit)
            )
            if len(values) > config.max_distinct_per_column:
                continue
            for value in values:
                predicates.append(
                    PredicateFragment(
                        keywords=_predicate_keywords(name_words, value, config),
                        predicate=Predicate(
                            ColumnRef(table.name, column.name), value
                        ),
                    )
                )
    return FragmentCatalog(functions, columns, predicates)


def _identifier_keywords(
    table: Table,
    column_name: str,
    config: ExtractionConfig,
    dictionary: dict[str, str],
) -> tuple[str, ...]:
    """Keywords for a column: its own name parts, table name parts,
    synonyms, and the data-dictionary description (if any)."""
    words = list(decompose_identifier(column_name))
    words.extend(decompose_identifier(table.name))
    description = dictionary.get(column_name.strip().lower(), "")
    column = table.column(column_name)
    description = description or column.description
    if description:
        words.extend(tokenize(description))
    if config.use_synonyms:
        for word in list(words):
            words.extend(sorted(synonyms(word)))
    return tuple(dict.fromkeys(words))


def _star_keywords(table: Table, config: ExtractionConfig) -> tuple[str, ...]:
    words = list(decompose_identifier(table.name))
    words.extend(["rows", "entries", "records"])
    if config.use_synonyms:
        for word in list(words):
            words.extend(sorted(synonyms(word)))
    return tuple(dict.fromkeys(words))


def _predicate_keywords(
    column_words: tuple[str, ...],
    value: Value,
    config: ExtractionConfig,
) -> tuple[str, ...]:
    """Keywords for ``column = value``: the value's words dominate, column
    words provide context (paper: derived from value name and column name)."""
    words = tokenize(str(value))
    expanded = list(words)
    for word in words:
        # Abbreviation bridge: "indef" also answers to "indefinite".
        expansions = abbreviation_expansions(word)
        expanded.extend(expansions)
        if config.use_synonyms:
            for expansion in expansions:
                expanded.extend(sorted(synonyms(expansion)))
    if config.use_synonyms:
        for word in words:
            expanded.extend(sorted(synonyms(word)))
    expanded.extend(column_words)
    return tuple(dict.fromkeys(expanded))
