"""Unit tests for cell values and coercion."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db.values import (
    DEFAULT_LITERAL,
    coerce_number,
    is_missing,
    is_numeric,
    normalize_string,
    value_sort_key,
    values_equal,
)


class TestIsMissing:
    def test_none_is_missing(self):
        assert is_missing(None)

    def test_empty_string_is_missing(self):
        assert is_missing("")

    def test_whitespace_is_missing(self):
        assert is_missing("   \t ")

    def test_zero_is_not_missing(self):
        assert not is_missing(0)

    def test_text_is_not_missing(self):
        assert not is_missing("indef")


class TestIsNumeric:
    def test_int(self):
        assert is_numeric(3)

    def test_float(self):
        assert is_numeric(3.5)

    def test_nan_rejected(self):
        assert not is_numeric(float("nan"))

    def test_bool_rejected(self):
        assert not is_numeric(True)

    def test_string_rejected(self):
        assert not is_numeric("3")


class TestCoerceNumber:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("-7", -7),
            ("3.25", 3.25),
            ("1,234", 1234),
            ("$5,000", 5000),
            ("13%", 13),
            ("(250)", -250),
            ("  8  ", 8),
        ],
    )
    def test_parses(self, text, expected):
        assert coerce_number(text) == expected

    @pytest.mark.parametrize("text", ["", "indef", "n/a", "12abc", "--3", "nan"])
    def test_rejects(self, text):
        assert coerce_number(text) is None

    def test_passthrough_int(self):
        assert coerce_number(9) == 9

    def test_none(self):
        assert coerce_number(None) is None

    @pytest.mark.parametrize(
        "cell", [10**400, -(10**400), "1" + "0" * 400, "(1" + "0" * 400 + ")"]
    )
    def test_int_beyond_float_range_is_not_a_number(self, cell):
        # float(10**400) raises; such a cell is present but non-numeric.
        assert coerce_number(cell) is None
        assert not is_missing(cell)

    def test_largest_float_sized_int_still_coerces(self):
        assert coerce_number(2**1000) == 2**1000
        assert coerce_number(str(2**1000)) == 2**1000


class TestValuesEqual:
    def test_numeric_cross_type(self):
        assert values_equal(3, 3.0)

    def test_case_insensitive_strings(self):
        assert values_equal("Indef", "indef")

    def test_whitespace_stripped(self):
        assert values_equal(" gambling ", "gambling")

    def test_null_never_equal(self):
        assert not values_equal(None, None)
        assert not values_equal(None, "x")

    def test_number_vs_number_string(self):
        # String cells compare as strings: '4' vs 4 matches via normalization.
        assert values_equal("4", "4")

    def test_distinct_values(self):
        assert not values_equal("gambling", "substance abuse")


class TestSortKey:
    def test_order_null_number_string(self):
        items = ["beta", 3, None, 1.5, "alpha"]
        ordered = sorted(items, key=value_sort_key)
        assert ordered == [None, 1.5, 3, "alpha", "beta"]


class TestDefaultLiteral:
    def test_default_literal_distinct_from_lookalike_values(self):
        # The NUL prefix keeps the default bucket distinct from any printable
        # cell value, even one spelled like the marker itself.
        assert DEFAULT_LITERAL.startswith("\x00")
        assert normalize_string(" <Other> ") != DEFAULT_LITERAL
        assert normalize_string("<other>") != DEFAULT_LITERAL


@given(st.integers(min_value=-10**9, max_value=10**9))
def test_coerce_number_roundtrips_integers(number):
    assert coerce_number(str(number)) == number


@given(
    st.floats(
        min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
    )
)
def test_coerce_number_roundtrips_floats(number):
    parsed = coerce_number(repr(number))
    assert parsed is not None
    assert math.isclose(parsed, number, rel_tol=1e-12, abs_tol=1e-12)


@given(st.text(max_size=20))
def test_values_equal_is_symmetric(text):
    assert values_equal(text, text.upper()) == values_equal(text.upper(), text)
