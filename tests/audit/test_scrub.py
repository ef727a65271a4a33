"""Offline integrity scrub: every persisted tier, every corruption class.

Each tier's contract: structural corruption (bit flips under the CRC
framing) is *detected and contained* (quarantine / skip / truncated-tail
stop), semantic corruption (a cell poisoned before its checksum was
taken) is caught only by the recompute pass — and a second scrub over
the repaired state reports clean.
"""

from __future__ import annotations

import json

import pytest

from repro.audit.scrub import (
    _bit_equal,
    recompute_matches,
    scrub_disk_cache,
    scrub_journal,
    scrub_state,
)
from repro.db import (
    Column,
    ColumnType,
    Database,
    DiskCubeCache,
    EngineConfig,
    QueryEngine,
    Table,
)
from repro.errors import QueryError
from repro.faults import FaultSpec, active
from repro.service.queue import _encode_record, scan_journal


def small_db(rows=None) -> Database:
    table = Table(
        "events",
        [Column("kind"), Column("score", ColumnType.NUMERIC)],
        rows
        if rows is not None
        else [("a", 1), ("a", 2), ("b", 3), (None, 4)],
    )
    return Database("d", [table])


def count_by_kind(db):
    from repro.db import parse_query

    return parse_query("SELECT Count(*) FROM events WHERE kind = 'a'", db)


def warm_cache(tmp_path, db=None):
    db = db or small_db()
    QueryEngine(db, EngineConfig(cache_dir=tmp_path)).evaluate(
        [count_by_kind(db)]
    )
    return db


class TestBitEqual:
    def test_type_strict(self):
        assert not _bit_equal(1, 1.0)
        assert not _bit_equal(True, 1)
        assert _bit_equal(1, 1)

    def test_float_reprs(self):
        assert _bit_equal(0.1 + 0.2, 0.30000000000000004)
        assert not _bit_equal(0.3, 0.1 + 0.2)
        assert not _bit_equal(0.0, -0.0)
        assert _bit_equal(float("nan"), float("nan"))


class TestBitflipAction:
    @pytest.mark.faults
    def test_bitflip_flips_one_middle_byte(self, tmp_path):
        from repro.faults import fire

        target = tmp_path / "victim.bin"
        original = bytes(range(16))
        target.write_bytes(original)
        with active(FaultSpec("audit.bitflip", "bitflip", match="victim*")):
            fire("audit.bitflip", key="victim.bin", payload=target)
        flipped = target.read_bytes()
        assert len(flipped) == len(original)
        assert flipped != original
        diffs = [i for i, (a, b) in enumerate(zip(original, flipped)) if a != b]
        assert diffs == [len(original) // 2]
        assert flipped[diffs[0]] == original[diffs[0]] ^ 0x40


class TestDiskCacheStructural:
    @pytest.mark.faults
    def test_injected_bitflip_is_caught_by_the_crc(self, tmp_path):
        # Flip one byte of the entry file after the atomic write: framing
        # still parses as far as the magic goes, but the CRC disagrees.
        db = small_db()
        with active(FaultSpec("audit.bitflip", "bitflip", match="*.cube")):
            warm_cache(tmp_path, db)
        engine = QueryEngine(db, EngineConfig(cache_dir=tmp_path))
        cache = engine.disk_cache
        results = engine.evaluate([count_by_kind(db)])
        assert results[count_by_kind(db)] == 2  # recomputed, still right
        assert cache.stats.corrupt == 1
        assert engine.stats.disk_corrupt == 1
        assert list(tmp_path.glob("*.cube.corrupt"))

    def test_scrub_quarantines_structural_corruption(self, tmp_path):
        warm_cache(tmp_path)
        [entry] = list(tmp_path.glob("*.cube"))
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0x01
        entry.write_bytes(bytes(blob))
        report = scrub_disk_cache(tmp_path)
        assert report["scanned"] == 1
        assert report["structural_corrupt"] == 1
        assert report["quarantined"] == 1
        assert not list(tmp_path.glob("*.cube"))
        # Second pass: nothing live, prior quarantine still visible.
        again = scrub_disk_cache(tmp_path)
        assert again["corrupt"] == 0
        assert again["previously_quarantined"] == 1

    def test_scrub_without_databases_is_structural_only(self, tmp_path):
        warm_cache(tmp_path)
        report = scrub_disk_cache(tmp_path)
        assert report["ok"] == report["scanned"] == 1
        assert report["skipped_semantic"] == 1
        assert report["corrupt"] == 0


class TestDiskCacheSemantic:
    @pytest.mark.faults
    def test_poisoned_cell_survives_crc_but_not_recompute(self, tmp_path):
        # The cell is corrupted BEFORE the checksum is computed: the file
        # is structurally pristine and only the recompute catches it.
        db = small_db()
        with active(FaultSpec("audit.bitflip", "raise", match="cell:*")):
            warm_cache(tmp_path, db)
        structural = scrub_disk_cache(tmp_path)
        assert structural["corrupt"] == 0  # CRC is (correctly) silent
        semantic = scrub_disk_cache(tmp_path, [db])
        assert semantic["semantic_mismatch"] == 1
        assert semantic["quarantined"] == 1
        assert not list(tmp_path.glob("*.cube"))

    def test_clean_entries_pass_the_recompute(self, tmp_path):
        db = warm_cache(tmp_path)
        report = scrub_disk_cache(tmp_path, [db])
        assert report["ok"] == report["scanned"] == 1
        assert report["skipped_semantic"] == 0
        assert report["corrupt"] == 0

    def test_unknown_fingerprint_skips_semantic(self, tmp_path):
        warm_cache(tmp_path)
        other = small_db([("z", 9)])
        report = scrub_disk_cache(tmp_path, [other])
        assert report["skipped_semantic"] == 1
        assert report["corrupt"] == 0


def plant_row_entry(cache_dir, db, backend="row"):
    """An entry of a backend that runs no cubes here, as another build
    wrote it: a columnar entry re-stored under ``backend`` (``row``, once
    run on cubes, or ``duckdb``, an adapter that no longer exists)."""
    warm_cache(cache_dir, db)
    cache = DiskCubeCache(cache_dir)
    [path] = cache.entries()
    payload = cache.read_payload(path)
    meta = payload["meta"]
    path.unlink()
    cache.store(
        meta["fingerprint"], backend, meta["tables"], meta["spec"],
        meta["dims"], payload["literals"], payload["cells"],
    )
    [planted] = cache.entries()
    planted_payload = cache.read_payload(planted)
    assert planted_payload["meta"]["backend"] == backend
    return planted_payload


@pytest.mark.parametrize(
    "backend, refusal",
    [("row", "runs no cubes"), ("duckdb", "unknown storage backend")],
    ids=["row", "duckdb"],
)
class TestEntriesOfTheCubeLessBackend:
    """The row backend is the NAIVE oracle and runs no cubes, and a backend
    outside the closed set has no adapter, so neither's entry can be
    recomputed: the scrub checks it structurally only."""

    def test_offline_scrub_skips_the_recompute(self, tmp_path, backend, refusal):
        db = small_db()
        payload = plant_row_entry(tmp_path, db, backend)
        with pytest.raises(QueryError, match=refusal):
            recompute_matches(db, payload)
        report = scrub_disk_cache(tmp_path, [db])
        assert report["scanned"] == report["ok"] == 1
        assert report["skipped_semantic"] == 1
        assert report["corrupt"] == 0
        assert list(tmp_path.glob("*.cube"))

    def test_cli_scrub_counts_it_and_exits_clean(
        self, tmp_path, capsys, backend, refusal
    ):
        from repro.cli import main as cli_main
        from repro.db import load_csv

        csv_path = tmp_path / "events.csv"
        csv_path.write_text("kind,score\na,1\na,2\nb,3\n")
        plant_row_entry(
            tmp_path / "cache", Database("cli", [load_csv(csv_path)]), backend
        )
        code = cli_main(
            ["scrub", "--cache-dir", str(tmp_path / "cache"),
             "--csv", str(csv_path), "--json"]
        )
        [tier] = json.loads(capsys.readouterr().out)["tiers"]
        assert code == 0
        assert tier["skipped_semantic"] == 1 and tier["corrupt"] == 0


class TestMinRows:
    def test_min_rows_threshold_skips_the_disk_tier(self, tmp_path):
        db = small_db()  # 4 rows
        engine = QueryEngine(
            db, EngineConfig(cache_dir=tmp_path, disk_cache_min_rows=100)
        )
        results = engine.evaluate([count_by_kind(db)])
        assert results[count_by_kind(db)] == 2
        assert engine.disk_cache is None
        assert engine.stats.disk_skipped_small == 1
        assert engine.stats.disk_hits == engine.stats.disk_misses == 0
        assert not list(tmp_path.glob("*.cube"))

    def test_min_rows_threshold_admits_large_databases(self, tmp_path):
        db = small_db()
        engine = QueryEngine(
            db, EngineConfig(cache_dir=tmp_path, disk_cache_min_rows=4)
        )
        engine.evaluate([count_by_kind(db)])
        assert engine.stats.disk_skipped_small == 0
        assert engine.disk_cache.stats.skipped_small == 0
        assert list(tmp_path.glob("*.cube"))


class TestJournalScan:
    def _write(self, tmp_path, lines: list[str]):
        path = tmp_path / "queue.journal"
        path.write_text("".join(lines), encoding="utf-8")
        return path

    def _records(self):
        return [
            _encode_record({"op": "put", "id": f"j{i}", "payload": {"x": i}})
            for i in range(3)
        ]

    def test_clean_journal(self, tmp_path):
        path = self._write(tmp_path, self._records())
        scan = scan_journal(path)
        assert scan["records"] == 3
        assert scan["corrupt"] == 0 and not scan["truncated"]

    def test_interior_bitflip_is_counted_and_skipped(self, tmp_path):
        lines = self._records()
        lines[1] = lines[1].replace('"x":1', '"x":7')  # valid JSON, bad CRC
        scan = scan_journal(self._write(tmp_path, lines))
        assert scan["records"] == 2
        assert scan["corrupt"] == 1 and not scan["truncated"]

    def test_truncated_tail_stops_the_scan(self, tmp_path):
        lines = self._records()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # torn final append
        scan = scan_journal(self._write(tmp_path, lines))
        assert scan["records"] == 2
        assert scan["truncated"]

    def test_missing_journal(self, tmp_path):
        scan = scan_journal(tmp_path / "queue.journal")
        assert not scan["present"]
        assert scan["records"] == 0

    def test_scan_never_mutates_the_file(self, tmp_path):
        lines = self._records()
        lines[1] = lines[1].replace('"x":1', '"x":7')
        path = self._write(tmp_path, lines)
        before = path.read_bytes()
        scan_journal(path)
        assert path.read_bytes() == before


class TestScrubState:
    def test_aggregates_every_tier(self, tmp_path):
        db = warm_cache(tmp_path / "cache")
        queue_dir = tmp_path / "queue"
        queue_dir.mkdir()
        (queue_dir / "queue.journal").write_text(
            _encode_record({"op": "put", "id": "j0"}), encoding="utf-8"
        )
        report = scrub_state(
            cache_dir=tmp_path / "cache",
            queue_dir=queue_dir,
            databases=[db],
        )
        assert [tier["tier"] for tier in report["tiers"]] == [
            "disk_cache", "queue_journal",
        ]
        assert report["clean"] and report["corrupt_total"] == 0

    def test_any_corruption_flips_clean(self, tmp_path):
        warm_cache(tmp_path / "cache")
        [entry] = list((tmp_path / "cache").glob("*.cube"))
        entry.write_bytes(b"garbage")
        report = scrub_state(cache_dir=tmp_path / "cache")
        assert not report["clean"]
        assert report["corrupt_total"] == 1
        # The corruption was quarantined: a second scrub is clean.
        assert scrub_state(cache_dir=tmp_path / "cache")["clean"]


class TestScrubCli:
    def test_exit_codes_and_json_report(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        warm_cache(tmp_path / "cache")
        [entry] = list((tmp_path / "cache").glob("*.cube"))
        blob = bytearray(entry.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        entry.write_bytes(bytes(blob))
        code = cli_main(
            ["scrub", "--cache-dir", str(tmp_path / "cache"), "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 4
        assert report["corrupt_total"] == 1
        assert not report["clean"]
        # The corrupt entry is now quarantined: clean second pass, exit 0.
        code = cli_main(
            ["scrub", "--cache-dir", str(tmp_path / "cache"), "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["clean"]

    def test_semantic_validation_via_csv(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        csv_path = tmp_path / "events.csv"
        csv_path.write_text("kind,score\na,1\na,2\nb,3\n")
        cache_dir = tmp_path / "cache"
        from repro.db import load_csv

        db = Database("cli", [load_csv(csv_path)])
        with active(FaultSpec("audit.bitflip", "raise", match="cell:*")):
            warm_cache(cache_dir, db)
        code = cli_main(
            ["scrub", "--cache-dir", str(cache_dir),
             "--csv", str(csv_path), "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 4
        assert report["tiers"][0]["semantic_mismatch"] == 1

    def test_no_tier_is_a_usage_error(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["scrub"]) == 2
        assert "nothing to scrub" in capsys.readouterr().err
