"""Memory-pressure shedding and journal-corruption detection.

The watchdog tests drive :class:`MemoryWatchdog` deterministically by
monkeypatching the RSS sampler — trip above the limit, hold inside the
hysteresis band, release below it — and read the ``shedding`` flag the
worker pool sheds on. The journal tests corrupt
records *inside* intact JSON lines (a bit flip the old parse-only replay
would have swallowed silently) and assert the CRC layer quarantines
exactly the damaged record while the rest of the journal replays.
"""

from __future__ import annotations

import json

import pytest

from repro.service import memwatch as memwatch_module
from repro.service.memwatch import MemoryWatchdog, read_rss_mb
from repro.service.queue import DurableJobQueue, JOURNAL_NAME


class TestMemoryWatchdog:
    def watchdog(self, monkeypatch, readings):
        values = iter(readings)
        monkeypatch.setattr(
            memwatch_module, "read_rss_mb", lambda: next(values)
        )
        return MemoryWatchdog(max_rss_mb=100.0)

    def test_trips_above_limit_and_releases_below_hysteresis(
        self, monkeypatch
    ):
        dog = self.watchdog(monkeypatch, [50.0, 150.0, 95.0, 80.0])
        dog.sample_once()
        assert not dog.stats()["shedding"]
        dog.sample_once()  # 150 > 100: trip
        assert dog.stats()["shedding"] and dog.shedding
        dog.sample_once()  # 95 is inside the hysteresis band: hold
        assert dog.stats()["shedding"]
        dog.sample_once()  # 80 < 90: release
        assert not dog.stats()["shedding"] and not dog.shedding
        assert dog.stats()["trips"] == 1
        assert dog.stats()["samples"] == 4

    def test_unavailable_proc_is_inert(self, monkeypatch):
        dog = self.watchdog(monkeypatch, [None, None])
        assert dog.sample_once() is None
        assert not dog.stats()["shedding"]
        assert dog.stats()["rss_mb"] is None
        assert not dog.shedding

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryWatchdog(max_rss_mb=0)
        with pytest.raises(ValueError):
            MemoryWatchdog(max_rss_mb=10, interval_seconds=0)

    def test_read_rss_mb_on_this_platform(self):
        rss = read_rss_mb()
        if rss is None:
            pytest.skip("no /proc on this platform")
        assert rss > 0


def _seed_queue(directory):
    queue = DurableJobQueue(directory)
    for title in ("claim-one", "claim-two"):
        queue.submit_group("scope", {"title": title}, [lambda *event: None])
    queue.close()
    return directory / JOURNAL_NAME


class TestJournalChecksums:
    def test_every_record_carries_a_crc(self, tmp_path):
        journal = _seed_queue(tmp_path)
        for line in journal.read_text().splitlines():
            assert "crc" in json.loads(line)

    def test_clean_journal_replays_without_corruption(self, tmp_path):
        _seed_queue(tmp_path)
        queue = DurableJobQueue(tmp_path)
        assert queue.corrupt_records == 0
        assert queue.resumed == 2
        queue.close()

    def test_bit_flip_inside_a_line_quarantines_that_record(self, tmp_path):
        journal = _seed_queue(tmp_path)
        text = journal.read_text()
        # Still valid JSON after the flip — only the checksum can see it.
        assert "claim-one" in text
        journal.write_text(text.replace("claim-one", "claim-0ne", 1))
        queue = DurableJobQueue(tmp_path)
        assert queue.corrupt_records == 1
        assert queue.stats()["corrupt_records"] == 1
        # The undamaged record still replays: corruption is contained.
        assert queue.resumed == 1
        assert [j.source["title"] for j in queue.pending_jobs()] == [
            "claim-two"
        ]
        queue.close()

    def test_missing_crc_field_is_corruption(self, tmp_path):
        journal = _seed_queue(tmp_path)
        lines = journal.read_text().splitlines()
        record = json.loads(lines[0])
        del record["crc"]
        lines[0] = json.dumps(record, separators=(",", ":"))
        journal.write_text("\n".join(lines) + "\n")
        queue = DurableJobQueue(tmp_path)
        assert queue.corrupt_records == 1
        assert queue.resumed == 1
        queue.close()

    def test_truncated_tail_still_stops_replay(self, tmp_path):
        journal = _seed_queue(tmp_path)
        raw = journal.read_bytes()
        journal.write_bytes(raw[:-7])
        queue = DurableJobQueue(tmp_path)
        assert queue.corrupt_records == 1
        assert queue.resumed == 1
        queue.close()
