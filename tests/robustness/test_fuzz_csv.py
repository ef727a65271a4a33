"""Adversarial CSV fuzzing: hostile text never escapes the error contract.

The loader's contract is binary: any text input either becomes a
:class:`~repro.db.schema.Table` or raises :class:`CsvFormatError` with a
machine-readable ``reason`` — no raw ``_csv.Error``, no ``ValueError``,
no crash. Hypothesis drives both free-form unicode and quote/comma/NUL
soup at it; the deterministic cases pin the limit reasons and the edge
shapes (BOM-only, header-only, ragged rows) the fuzzer found interesting.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.csvio import DEFAULT_CSV_LIMITS, CsvLimits, load_csv_text
from repro.db.datadict import parse_data_dictionary
from repro.db.schema import Table
from repro.errors import CsvFormatError, DataDictionaryError

#: Tight limits so the fuzzer can cross every boundary with small inputs.
TIGHT = CsvLimits(max_rows=8, max_columns=4, max_field_bytes=16)

# Surrogates excluded: inputs model *decoded* text (a real request body
# has already survived UTF-8 decoding, which surrogates cannot).
unicode_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=400
)

#: Quote/comma/newline/NUL soup — the characters the csv module's state
#: machine actually branches on.
csv_soup = st.text(alphabet='",\n\r;ab\x00\t ', max_size=300)


class TestFuzzLoadCsvText:
    @given(text=unicode_text)
    @settings(max_examples=150, deadline=None)
    def test_unicode_loads_or_raises_csv_format_error(self, text):
        try:
            table = load_csv_text(text, "fuzz", TIGHT)
        except CsvFormatError as error:
            assert isinstance(error.reason, str) and error.reason
        else:
            assert isinstance(table, Table)

    @given(text=csv_soup)
    @settings(max_examples=150, deadline=None)
    def test_quote_soup_loads_or_raises_csv_format_error(self, text):
        try:
            table = load_csv_text(text, "fuzz", TIGHT)
        except CsvFormatError as error:
            assert isinstance(error.reason, str) and error.reason
        else:
            assert isinstance(table, Table)

    @given(text=unicode_text)
    @settings(max_examples=100, deadline=None)
    def test_data_dictionary_junk_raises_only_dictionary_errors(self, text):
        try:
            mapping = parse_data_dictionary(text)
        except DataDictionaryError:
            pass
        else:
            assert isinstance(mapping, dict)


class TestLimitReasons:
    def test_empty_input(self):
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv_text("", "t", TIGHT)
        assert excinfo.value.reason == "empty_input"

    def test_too_many_columns(self):
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv_text("a,b,c,d,e\n1,2,3,4,5\n", "t", TIGHT)
        assert excinfo.value.reason == "too_many_columns"

    def test_too_many_rows(self):
        rows = "\n".join(f"{i},x" for i in range(20))
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv_text("a,b\n" + rows + "\n", "t", TIGHT)
        assert excinfo.value.reason == "too_many_rows"

    def test_field_too_large(self):
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv_text("a,b\n" + "x" * 64 + ",2\n", "t", TIGHT)
        assert excinfo.value.reason == "field_too_large"

    def test_field_limit_counts_utf8_bytes_not_characters(self):
        # 10 two-byte characters: under the limit in characters (if it
        # were measured that way), over it in encoded bytes.
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv_text("a,b\n" + "é" * 10 + ",2\n", "t", TIGHT)
        assert excinfo.value.reason == "field_too_large"

    def test_oversized_quoted_field_is_wrapped_not_raw_csv_error(self):
        # Over the csv module's own field_size_limit: the stdlib raises
        # csv.Error internally and the loader must wrap it.
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv_text('"' + "a" * 200_000, "t")
        assert excinfo.value.reason == "csv_format"

    def test_data_dictionary_wraps_the_same_stdlib_error(self):
        with pytest.raises(DataDictionaryError):
            parse_data_dictionary('"' + "a" * 200_000)

    def test_duplicate_header_names_are_a_format_error(self):
        # Found by the fuzzer: ';,;' parses to two identical column
        # names, which must not escape as a SchemaError.
        with pytest.raises(CsvFormatError) as excinfo:
            load_csv_text(";,;", "t", TIGHT)
        assert excinfo.value.reason == "duplicate_columns"

    def test_limits_within_bounds_load_fine(self):
        table = load_csv_text("a,b\n1,2\n3,4\n", "t", TIGHT)
        assert len(table) == 2


class TestEdgeShapes:
    def test_bom_only_input_is_a_degenerate_table_not_a_crash(self):
        table = load_csv_text("﻿", "t", TIGHT)
        assert isinstance(table, Table)
        assert len(table) == 0

    def test_header_only_is_an_empty_table(self):
        table = load_csv_text("a,b\n", "t", TIGHT)
        assert [c.name for c in table.columns] == ["a", "b"]
        assert len(table) == 0

    def test_ragged_rows_are_tolerated(self):
        table = load_csv_text("a,b\n1\n2,3,4\n", "t", DEFAULT_CSV_LIMITS)
        assert isinstance(table, Table)

    def test_nul_bytes_do_not_crash(self):
        table = load_csv_text("a,b\n\x001,2\n", "t", TIGHT)
        assert isinstance(table, Table)


class TestCsvLimitsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_rows": 0},
            {"max_columns": 0},
            {"max_field_bytes": 0},
            {"max_rows": -5},
        ],
    )
    def test_non_positive_limits_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CsvLimits(**{**vars(DEFAULT_CSV_LIMITS), **kwargs})
