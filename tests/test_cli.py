"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

NFL_CSV = """Name,Team,Games,Category,Year
Ray Rice,BAL,2,domestic violence,2014
Art Schlichter,BAL,indef,gambling,1983
Stanley Wilson,CIN,indef,"substance abuse, repeated offense",1989
Dexter Manley,WAS,indef,"substance abuse, repeated offense",1991
Roy Tarpley,DAL,indef,"substance abuse, repeated offense",1995
Josh Gordon,CLE,16,substance abuse,2014
"""

ARTICLE_HTML = """
<title>Punishing players</title>
<h1>Lifetime bans</h1>
<p>There were only four previous lifetime bans in my database.
Three were for repeated substance abuse, one was for gambling.</p>
"""

BAD_ARTICLE_HTML = ARTICLE_HTML.replace("only four previous", "only nine previous")


@pytest.fixture()
def data_files(tmp_path):
    csv = tmp_path / "nflsuspensions.csv"
    csv.write_text(NFL_CSV)
    article = tmp_path / "article.html"
    article.write_text(ARTICLE_HTML)
    bad_article = tmp_path / "bad.html"
    bad_article.write_text(BAD_ARTICLE_HTML)
    return csv, article, bad_article


class TestCheckCommand:
    def test_clean_article_exit_zero(self, data_files, capsys):
        csv, article, _ = data_files
        code = main(["check", "--csv", str(csv), "--article", str(article)])
        output = capsys.readouterr().out
        assert code == 0
        assert "[OK four]" in output
        assert "3 claims checked, 0 flagged" in output

    def test_erroneous_article_exit_one(self, data_files, capsys):
        csv, _, bad_article = data_files
        code = main(["check", "--csv", str(csv), "--article", str(bad_article)])
        output = capsys.readouterr().out
        assert code == 1
        assert "[ERR nine ->" in output

    def test_json_output(self, data_files, capsys):
        csv, article, _ = data_files
        code = main(
            ["check", "--csv", str(csv), "--article", str(article), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["claims"]) == 3
        assert payload["claims"][0]["status"] == "verified"
        assert payload["claims"][0]["top_query"].startswith("SELECT Count(*)")

    def test_plain_text_article(self, data_files, tmp_path, capsys):
        csv, _, _ = data_files
        article = tmp_path / "plain.txt"
        article.write_text(
            "There were four lifetime bans in the data.\n\n"
            "One was for gambling."
        )
        code = main(["check", "--csv", str(csv), "--article", str(article)])
        assert code == 0

    def test_data_dictionary_flag(self, data_files, tmp_path, capsys):
        csv, article, _ = data_files
        dictionary = tmp_path / "dict.csv"
        dictionary.write_text("column,description\nGames,suspension length\n")
        code = main(
            [
                "check",
                "--csv",
                str(csv),
                "--article",
                str(article),
                "--data-dict",
                str(dictionary),
            ]
        )
        assert code == 0

    def test_missing_file_is_reported(self, data_files, tmp_path, capsys):
        csv, _, _ = data_files
        code = main(
            ["check", "--csv", str(csv), "--article", str(tmp_path / "x.html")]
        )
        assert code == 2 or code == 1  # load error surfaces as exit 2

    def test_hits_flag(self, data_files, capsys):
        csv, article, _ = data_files
        code = main(
            [
                "check",
                "--csv",
                str(csv),
                "--article",
                str(article),
                "--hits",
                "5",
            ]
        )
        assert code in (0, 1)


class TestBackendPicksTheEngine:
    """``--backend`` alone names the engine: ``row`` is the NAIVE oracle,
    every other backend runs merged, cached cubes."""

    @pytest.mark.parametrize("backend", ["row", "columnar", "sqlite"])
    def test_check_json_matches_the_library_engine(
        self, data_files, capsys, backend
    ):
        from repro.core import AggChecker
        from repro.core.config import AggCheckerConfig
        from repro.db import Database, EngineConfig, load_csv
        from repro.service.protocol import parse_article, verdict_payload

        from tests.db.oracle import ORACLE

        csv, article, _ = data_files
        code = main(
            ["check", "--csv", str(csv), "--article", str(article),
             "--backend", backend, "--json"]
        )
        claims = json.loads(capsys.readouterr().out)["claims"]
        engine = EngineConfig(backend=backend)
        assert (engine == ORACLE) == (backend == "row")
        checker = AggChecker(
            Database("cli", [load_csv(csv)]), AggCheckerConfig(engine=engine)
        )
        report = checker.check_document(
            parse_article(article.read_text(encoding="utf-8"), article.stem)
        )
        assert code == 0
        assert claims == [verdict_payload(v) for v in report.verdicts]

    @pytest.mark.parametrize("command", ["check", "serve"])
    def test_execution_mode_is_a_usage_error(self, data_files, capsys, command):
        csv, article, _ = data_files
        argv = [command, "--execution-mode", "naive"]
        if command == "check":
            argv += ["--csv", str(csv), "--article", str(article)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--execution-mode" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "corpus-run", "serve"])
    def test_duckdb_is_a_usage_error(self, data_files, capsys, command):
        csv, article, _ = data_files
        argv = [command, "--backend", "duckdb"]
        if command == "check":
            argv += ["--csv", str(csv), "--article", str(article)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice: 'duckdb'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "corpus-run", "serve"])
    def test_backend_help_names_the_oracle(self, command):
        import argparse
        import re

        from repro.cli import build_parser

        commands = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        [backend] = [
            action
            for action in commands.choices[command]._actions
            if "--backend" in action.option_strings
        ]
        text = " ".join(backend.help.split())
        assert "'row', the NAIVE reference oracle" in text
        assert tuple(backend.choices) == ("columnar", "row", "sqlite")
        assert set(re.findall(r"'(\w+)'", text)) == set(backend.choices)


class TestServeParser:
    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert (args.host, args.port) == ("127.0.0.1", 8765)
        assert args.no_incremental is False
        assert args.incremental_capacity == 16384

    def test_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--no-incremental",
                "--cache-dir", ".cubecache", "--backend", "row",
            ]
        )
        assert args.port == 0
        assert args.no_incremental is True
        assert args.cache_dir == ".cubecache"
        assert args.backend == "row"

    def test_audit_rate_accepts_only_zero(self, capsys):
        from repro.cli import build_parser

        assert build_parser().parse_args(
            ["serve", "--audit-rate", "0"]
        ).audit_rate == 0.0
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "--audit-rate", "0.05"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCorpusRun:
    @pytest.mark.parametrize("limit", ["-1", "0"])
    def test_limit_below_one_is_a_usage_error(self, capsys, limit):
        with pytest.raises(SystemExit) as exit_info:
            main(["corpus-run", "--limit", limit, "--json"])
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus-run", "--workers", "2"],
            ["corpus-run", "--checkpoint", "run.ckpt"],
            ["corpus-run", "--resume"],
            ["corpus-run", "--max-retries", "2"],
            ["scrub", "--checkpoint", "run.ckpt"],
            ["serve", "--audit-backlog", "64"],
            ["serve", "--trust-recover-after", "8"],
            ["serve", "--visibility-timeout", "30"],
        ],
        ids=[
            "workers", "checkpoint", "resume", "max-retries", "scrub-checkpoint",
            "audit-backlog", "trust-recover-after", "visibility-timeout",
        ],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_json_report(self, capsys):
        code = main(["corpus-run", "--limit", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["cases"] == 1
        assert set(payload) == {
            "cases", "claims", "erroneous", "flagged", "precision", "recall",
            "f1", "top_k_coverage", "seconds", "case_seconds",
            "claims_per_sec", "physical_queries", "cube_queries",
            "memory_cache_hit_rate", "disk_cache_hit_rate",
        }

    @pytest.mark.faults
    def test_failing_case_exits_two(self, capsys):
        from repro.faults import FaultSpec, active

        with active(FaultSpec("checker.stage", "raise", match="match")):
            code = main(["corpus-run", "--limit", "2", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "injected fault at 'checker.stage'" in captured.err


class TestCorpusStats:
    def test_prints_statistics(self, capsys):
        code = main(["corpus-stats"])
        output = capsys.readouterr().out
        assert code == 0
        assert "articles: 53" in output
        assert "predicate histogram" in output
