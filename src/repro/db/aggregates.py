"""Aggregation functions supported by Simple Aggregate Queries.

The paper supports Count, Count Distinct, Sum, Average, Min, Max,
Percentage, and Conditional Probability (Section 2). The two ratio
functions are defined in terms of counts over different predicate subsets
(footnote 1), which is what lets the cube operator serve them from basis
counts.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from repro.db.values import Value, coerce_number, is_missing, normalize_string


class AggregateFunction(enum.Enum):
    """SQL aggregation functions recognized in claims."""

    COUNT = "count"
    COUNT_DISTINCT = "count_distinct"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    PERCENTAGE = "percentage"
    CONDITIONAL_PROBABILITY = "conditional_probability"

    @property
    def is_ratio(self) -> bool:
        """Ratio functions divide counts of two predicate subsets."""
        return self in (
            AggregateFunction.PERCENTAGE,
            AggregateFunction.CONDITIONAL_PROBABILITY,
        )

    @property
    def needs_numeric_column(self) -> bool:
        """Sum/Avg/Min/Max require a numeric aggregation column."""
        return self in (
            AggregateFunction.SUM,
            AggregateFunction.AVG,
            AggregateFunction.MIN,
            AggregateFunction.MAX,
        )

    @property
    def sql_name(self) -> str:
        return {
            AggregateFunction.COUNT: "Count",
            AggregateFunction.COUNT_DISTINCT: "CountDistinct",
            AggregateFunction.SUM: "Sum",
            AggregateFunction.AVG: "Avg",
            AggregateFunction.MIN: "Min",
            AggregateFunction.MAX: "Max",
            AggregateFunction.PERCENTAGE: "Percentage",
            AggregateFunction.CONDITIONAL_PROBABILITY: "ConditionalProbability",
        }[self]


#: Parse map from SQL spellings (lowercased) to functions.
SQL_NAMES: dict[str, AggregateFunction] = {
    "count": AggregateFunction.COUNT,
    "countdistinct": AggregateFunction.COUNT_DISTINCT,
    "count_distinct": AggregateFunction.COUNT_DISTINCT,
    "sum": AggregateFunction.SUM,
    "avg": AggregateFunction.AVG,
    "average": AggregateFunction.AVG,
    "min": AggregateFunction.MIN,
    "max": AggregateFunction.MAX,
    "percentage": AggregateFunction.PERCENTAGE,
    "percent": AggregateFunction.PERCENTAGE,
    "conditionalprobability": AggregateFunction.CONDITIONAL_PROBABILITY,
    "conditional_probability": AggregateFunction.CONDITIONAL_PROBABILITY,
}


def compute_plain(fn: AggregateFunction, cells: Iterable[Value]) -> Value:
    """Evaluate a non-ratio aggregate over the cells of one column.

    Follows SQL semantics: NULLs are skipped; Sum/Min/Max/Avg of an empty
    input are NULL; Count of an empty input is 0. Non-numeric strings in a
    numeric aggregate are skipped (scraped data hygiene). Sum and Avg add
    plainly in row order, like the cubes; builtin ``sum()`` compensates
    float rounding from Python 3.12 on, so it would differ in the last bits.
    """
    if fn is AggregateFunction.COUNT:
        return sum(1 for cell in cells if not is_missing(cell))
    if fn is AggregateFunction.COUNT_DISTINCT:
        distinct = {
            normalize_string(cell) for cell in cells if not is_missing(cell)
        }
        return len(distinct)
    numbers = []
    for cell in cells:
        if is_missing(cell):
            continue
        number = coerce_number(cell)
        if number is not None:
            numbers.append(number)
    if not numbers:
        return None
    if fn in (AggregateFunction.SUM, AggregateFunction.AVG):
        total = 0
        for number in numbers:
            total += number
        return total if fn is AggregateFunction.SUM else total / len(numbers)
    if fn is AggregateFunction.MIN:
        return min(numbers)
    if fn is AggregateFunction.MAX:
        return max(numbers)
    raise ValueError(f"compute_plain does not handle ratio function {fn}")


def ratio_value(numerator: Value, denominator: Value) -> Value:
    """Percentage-style ratio of two counts; NULL when undefined."""
    if not isinstance(numerator, (int, float)):
        return None
    if not isinstance(denominator, (int, float)) or denominator == 0:
        return None
    return 100.0 * numerator / denominator
