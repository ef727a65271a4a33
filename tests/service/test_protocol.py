"""Unit tests for the service wire protocol (no pipeline)."""

from __future__ import annotations

import json

import pytest

from repro.service.protocol import (
    CheckRequest,
    ProtocolError,
    claim_event,
    encode_event,
    error_event,
    parse_article,
)


class TestCheckRequestParsing:
    def test_minimal_inline_request(self):
        request = CheckRequest.from_json(
            {"tables": {"t": "a,b\n1,2\n"}, "article": "Four things."}
        )
        assert request.inline_tables == (("t", "a,b\n1,2\n"),)
        assert request.article == "Four things."
        assert request.incremental is True

    def test_csv_string_promoted_to_list(self):
        request = CheckRequest.from_json(
            {"csv": "data.csv", "article": "x"}
        )
        assert request.csv_paths == ("data.csv",)

    def test_body_must_be_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            CheckRequest.from_json(["not", "an", "object"])

    def test_needs_some_table_source(self):
        with pytest.raises(ProtocolError, match="'csv' paths, inline"):
            CheckRequest.from_json({"article": "x"})

    def test_exactly_one_article_source(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            CheckRequest.from_json({"csv": ["d.csv"]})
        with pytest.raises(ProtocolError, match="exactly one"):
            CheckRequest.from_json(
                {"csv": ["d.csv"], "article": "x", "article_path": "a.html"}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            CheckRequest.from_json(
                {"csv": ["d.csv"], "article": "x", "claims": ["huh"]}
            )

    def test_title_and_database_name_must_be_strings(self):
        for field in ("title", "database_name"):
            with pytest.raises(ProtocolError, match=field):
                CheckRequest.from_json(
                    {"csv": ["d.csv"], "article": "x", field: {"a": 1}}
                )

    def test_incremental_must_be_boolean(self):
        with pytest.raises(ProtocolError, match="'incremental'"):
            CheckRequest.from_json(
                {"csv": ["d.csv"], "article": "x", "incremental": "yes"}
            )

    def test_tables_must_map_names_to_text(self):
        with pytest.raises(ProtocolError, match="'tables'"):
            CheckRequest.from_json({"tables": {"t": 3}, "article": "x"})

    def test_bad_csv_type(self):
        with pytest.raises(ProtocolError, match="'csv'"):
            CheckRequest.from_json({"csv": [1], "article": "x"})

    def test_dataclass_field_aliases_rejected(self):
        # Only wire names are accepted: aliases would be silently ignored.
        with pytest.raises(ProtocolError, match="unknown request fields"):
            CheckRequest.from_json({"csv_paths": ["d.csv"], "article": "x"})
        with pytest.raises(ProtocolError, match="unknown request fields"):
            CheckRequest.from_json(
                {"inline_tables": {"t": "a\n1\n"}, "article": "x"}
            )

    def test_database_fingerprint_reference(self):
        request = CheckRequest.from_json(
            {"database": "abc123", "article": "Four things."}
        )
        assert request.database == "abc123"
        assert request.csv_paths == ()

    def test_database_reference_excludes_data_sources(self):
        for extra in (
            {"csv": ["d.csv"]},
            {"tables": {"t": "a\n1\n"}},
            {"data_dict": "column,description\n"},
        ):
            with pytest.raises(ProtocolError, match="excludes"):
                CheckRequest.from_json(
                    {"database": "abc123", "article": "x", **extra}
                )

    def test_inline_database_loads(self):
        request = CheckRequest.from_json(
            {
                "tables": {"nums": "name,score\na,1\nb,2\n"},
                "article": "Two rows.",
                "database_name": "mydb",
            }
        )
        database = request.load_database()
        assert database.name == "mydb"
        assert [t.name for t in database.tables] == ["nums"]
        assert len(database.tables[0].rows) == 2

    def test_inline_data_dictionary(self):
        request = CheckRequest.from_json(
            {
                "tables": {"t": "a,b\n1,2\n"},
                "article": "x",
                "data_dict": "column,description\na,alpha level\n",
            }
        )
        assert request.load_dictionary() == {"a": "alpha level"}


class TestArticleParsing:
    def test_html_sniffing(self):
        document = parse_article(
            "<title>T</title><p>Four things happened.</p>", "ignored"
        )
        assert document.title == "T"

    def test_plain_text_uses_title(self):
        document = parse_article(
            "Four things happened.\n\nThen five more.", "draft"
        )
        assert document.title == "draft"
        assert len(document.paragraphs()) == 2


class TestFraming:
    def test_encode_event_is_one_terminated_line(self):
        frame = encode_event(claim_event(3, {"status": "verified"}, True))
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1
        decoded = json.loads(frame)
        assert decoded == {
            "event": "claim",
            "index": 3,
            "cached": True,
            "claim": {"status": "verified"},
        }

    def test_error_event_shape(self):
        assert json.loads(encode_event(error_event("boom"))) == {
            "event": "error",
            "error": "boom",
        }

    def test_frames_never_contain_raw_newlines(self):
        frame = encode_event({"event": "claim", "text": "line\nbreak"})
        assert frame.count(b"\n") == 1  # the terminator only (escaped inside)
