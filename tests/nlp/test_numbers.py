"""Unit and property tests for numeral understanding and rounding."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nlp.numbers import (
    extract_number_mentions,
    near_claimed,
    round_to_significant,
    rounds_to,
)
from repro.nlp.tokens import tokenize_with_punct


def mentions(text):
    return extract_number_mentions(tokenize_with_punct(text))


class TestExtractDigits:
    def test_plain_integer(self):
        found = mentions("they gave money to 63 candidates")
        assert len(found) == 1
        assert found[0].value == 63

    def test_thousands_separator(self):
        assert mentions("about 1,234 rows")[0].value == 1234

    def test_decimal(self):
        assert mentions("an average of 3.5 goals")[0].value == 3.5

    def test_percent_sign(self):
        found = mentions("13% of respondents")[0]
        assert found.value == 13 and found.is_percentage

    def test_percent_word(self):
        found = mentions("13 percent of respondents")[0]
        assert found.value == 13 and found.is_percentage

    def test_magnitude(self):
        assert mentions("nearly 1.2 million users")[0].value == 1_200_000

    def test_year_flagged(self):
        found = mentions("back in 2014 the rule changed")[0]
        assert found.is_year_like

    def test_four_digit_count_with_comma_not_year(self):
        found = mentions("there were 2,014 incidents")[0]
        assert found.value == 2014 and not found.is_year_like

    def test_multiple_numbers(self):
        found = mentions("three were for abuse, one was for gambling, 2 more")
        assert [m.value for m in found] == [3, 1, 2]


class TestExtractSpelled:
    def test_simple_word(self):
        found = mentions("there were only four previous lifetime bans")
        assert found[0].value == 4 and found[0].is_spelled

    def test_compound(self):
        assert mentions("twenty three players left")[0].value == 23

    def test_hyphenated_compound(self):
        assert mentions("twenty-three players left")[0].value == 23

    def test_scales(self):
        assert mentions("two hundred people answered")[0].value == 200
        assert mentions("three million dollars raised")[0].value == 3_000_000

    def test_spelled_percent(self):
        found = mentions("ten percent of games")[0]
        assert found.value == 10 and found.is_percentage

    def test_ordinals_flagged(self):
        found = mentions("the third season was the best")
        assert found[0].is_ordinal and found[0].value == 3

    def test_digit_ordinal_flagged(self):
        found = mentions("ranked 4th overall")
        assert found[0].is_ordinal

    def test_no_numbers(self):
        assert mentions("no numerals appear here") == []


class TestRoundsTo:
    def test_exact(self):
        assert rounds_to(4, 4)

    def test_rounding_up(self):
        assert rounds_to(13.64, 14)

    def test_paper_rounding_error_detected(self):
        # The Stack Overflow claim: 13% claimed, true value ~13.64 -> 14.
        assert not rounds_to(13.64, 13)

    def test_one_significant_digit(self):
        assert rounds_to(38.7, 40)

    def test_two_significant_digits(self):
        assert rounds_to(63.2, 63)

    def test_fraction(self):
        assert rounds_to(0.347, 0.3)
        assert rounds_to(0.347, 0.35)

    def test_negative(self):
        assert rounds_to(-13.64, -14)
        assert not rounds_to(-13.64, 13.64)

    def test_null_result(self):
        assert not rounds_to(None, 4)

    def test_non_numeric_result(self):
        assert not rounds_to("four", 4)  # type: ignore[arg-type]

    def test_nan_result(self):
        assert not rounds_to(float("nan"), 4)

    def test_zero(self):
        assert rounds_to(0, 0)
        assert not rounds_to(0, 1)


class TestRoundToSignificant:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (13.64, 1, 10.0),
            (13.64, 2, 14.0),
            (13.64, 3, 13.6),
            (0.00347, 2, 0.0035),
            (98765, 2, 99000),
            (-13.64, 2, -14.0),
            (0, 3, 0.0),
        ],
    )
    def test_cases(self, value, digits, expected):
        assert round_to_significant(value, digits) == pytest.approx(expected)

    def test_invalid_digits(self):
        with pytest.raises(ValueError):
            round_to_significant(1.0, 0)


@settings(max_examples=100, deadline=None)
@given(
    value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    digits=st.integers(min_value=1, max_value=10),
)
def test_rounding_is_admissible(value, digits):
    """Property: every significant-digit rounding of x is accepted for x."""
    rounded = round_to_significant(value, digits)
    assert rounds_to(value, rounded)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=999))
def test_spelled_numbers_roundtrip(number):
    """Property: spelled-out integers parse back to their value."""
    words = _spell(number)
    found = mentions(f"there were {words} things")
    assert found, words
    assert found[0].value == number


def _spell(number: int) -> str:
    units = [
        "zero", "one", "two", "three", "four", "five", "six", "seven",
        "eight", "nine", "ten", "eleven", "twelve", "thirteen", "fourteen",
        "fifteen", "sixteen", "seventeen", "eighteen", "nineteen",
    ]
    tens = [
        "", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy",
        "eighty", "ninety",
    ]
    if number < 20:
        return units[number]
    if number < 100:
        ten, unit = divmod(number, 10)
        return tens[ten] + ("" if unit == 0 else f"-{units[unit]}")
    hundred, rest = divmod(number, 100)
    text = f"{units[hundred]} hundred"
    if rest:
        text += f" and {_spell(rest)}"
    return text


def exhaustive_rounds_to(value, claimed, max_digits=12):
    """``rounds_to`` without its early exit: every rounding is tried."""
    if math.isclose(value, claimed, rel_tol=1e-9, abs_tol=1e-9):
        return True
    return any(
        math.isclose(
            round_to_significant(value, digits), claimed,
            rel_tol=1e-9, abs_tol=1e-9,
        )
        for digits in range(1, max_digits + 1)
    )


_FINITE = st.floats(allow_nan=False, allow_infinity=False)  # incl. subnormals
#: Results the cube can produce, weighted towards where the magnitude
#: expression is fragile: powers of ten and their float neighbours, zeros,
#: ints that float64 cannot hold exactly, subnormal and huge floats.
_RESULTS = st.one_of(
    _FINITE,
    st.builds(
        lambda exponent, step, sign: sign * (
            10.0 ** exponent if step == 0
            else math.nextafter(10.0 ** exponent, step * math.inf)
        ),
        st.integers(min_value=-320, max_value=308),
        st.sampled_from([-1, 0, 1]),
        st.sampled_from([-1.0, 1.0]),
    ),
    st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
    st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
    st.integers(min_value=2 ** 53, max_value=2 ** 80),
    st.integers(min_value=-(2 ** 80), max_value=-(2 ** 53)),
)


@st.composite
def result_and_claim(draw):
    """A result with a claimed value that often is one of its roundings,
    or sits a hair inside or outside one."""
    value = draw(_RESULTS)
    kind = draw(st.sampled_from(["free", "tiny", "rounding", "edge"]))
    if kind == "free":
        return value, draw(_FINITE)
    if kind == "tiny":  # where only the absolute tolerance can match
        return value, draw(st.sampled_from([-1, 1])) * draw(
            st.sampled_from([0.0, 5e-10, 1e-9, 1.5e-9, 1e-8])
        )
    try:
        claimed = float(
            round_to_significant(value, draw(st.integers(1, 12)))
        )
    except OverflowError:  # the rounding of a huge float left float range
        return value, draw(_FINITE)
    if kind == "edge":
        claimed *= 1.0 + draw(st.sampled_from([-1, 1])) * draw(
            st.sampled_from([5e-10, 1e-9, 2e-9, 1e-8])
        )
    return value, claimed


@settings(max_examples=2000, deadline=None)
@given(result_and_claim())
def test_early_exit_never_rejects_an_admissible_rounding(pair):
    """The scalar near-filter is conservative, so ``rounds_to`` answers
    exactly what trying every rounding answers."""
    value, claimed = pair
    try:
        expected = exhaustive_rounds_to(value, claimed)
    except OverflowError:
        assume(False)
    assert rounds_to(value, claimed) == expected


@settings(max_examples=2000, deadline=None)
@given(st.lists(result_and_claim(), min_size=1, max_size=8))
def test_array_near_filter_is_conservative(pairs):
    """``rounds_to(value, claimed)`` implies ``near_claimed`` keeps it."""
    claimed = pairs[0][1]
    values = [value for value, _ in pairs]
    kept = near_claimed(np.array(values, dtype=np.float64), claimed)
    for value, keep in zip(values, kept.tolist()):
        try:
            admissible = exhaustive_rounds_to(value, claimed)
        except OverflowError:
            continue
        assert keep or not admissible, (value, claimed)
