"""Adversarial request-body fuzzing for the service wire protocol.

``CheckRequest.from_json`` is the first code that touches client JSON
after decoding: any decoded value must either parse into a request or
raise :class:`ProtocolError` with a machine-readable ``reason`` — never a
``KeyError``/``TypeError``/``AttributeError`` traceback. Hypothesis
throws arbitrary JSON-shaped values at it plus a biased generator that
hits real wire-field names with wrong-typed values (far more likely to
reach deep branches than uniform noise).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol
from repro.service.protocol import (
    MAX_CLAIMS_PER_DOCUMENT,
    MAX_INLINE_TABLES,
    CheckRequest,
    ProtocolError,
    enforce_claim_limit,
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=24),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=24,
)

#: Bodies whose keys are real wire fields (plus junk) with hostile values.
biased_bodies = st.dictionaries(
    st.sampled_from(sorted(protocol._WIRE_FIELDS) + ["junk", "csv "]),
    json_values,
    max_size=6,
)


class TestFuzzFromJson:
    @given(payload=json_values)
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_json_parses_or_raises_protocol_error(self, payload):
        try:
            request = CheckRequest.from_json(payload)
        except ProtocolError as error:
            assert isinstance(error.reason, str) and error.reason
        else:
            assert isinstance(request, CheckRequest)

    @given(payload=biased_bodies)
    @settings(max_examples=200, deadline=None)
    def test_wire_field_shaped_bodies_never_traceback(self, payload):
        try:
            request = CheckRequest.from_json(payload)
        except ProtocolError as error:
            assert isinstance(error.reason, str) and error.reason
        else:
            assert isinstance(request, CheckRequest)


class TestRequestLimits:
    def test_too_many_inline_tables(self):
        tables = {f"t{i}": "a\n1\n" for i in range(MAX_INLINE_TABLES + 1)}
        with pytest.raises(ProtocolError) as excinfo:
            CheckRequest.from_json({"tables": tables, "article": "x"})
        assert excinfo.value.reason == "too_many_tables"

    def test_table_count_at_the_limit_is_accepted(self):
        tables = {f"t{i}": "a\n1\n" for i in range(MAX_INLINE_TABLES)}
        request = CheckRequest.from_json({"tables": tables, "article": "x"})
        assert len(request.inline_tables) == MAX_INLINE_TABLES

    def test_claim_limit_rejects_with_reason(self):
        with pytest.raises(ProtocolError) as excinfo:
            enforce_claim_limit(MAX_CLAIMS_PER_DOCUMENT + 1)
        assert excinfo.value.reason == "too_many_claims"

    def test_claim_limit_at_the_boundary_passes(self):
        enforce_claim_limit(MAX_CLAIMS_PER_DOCUMENT)

    def test_unknown_fields_keep_the_default_reason(self):
        with pytest.raises(ProtocolError) as excinfo:
            CheckRequest.from_json({"artcle": "typo"})
        assert excinfo.value.reason == "bad_request"

    def test_inline_tables_load_under_service_limits(self):
        wide = ",".join(f"c{i}" for i in range(300))
        request = CheckRequest.from_json(
            {"tables": {"t": wide + "\n"}, "article": "x"}
        )
        from repro.errors import CsvFormatError

        with pytest.raises(CsvFormatError) as excinfo:
            request.load_database()
        assert excinfo.value.reason == "too_many_columns"
