"""Memory-pressure shedding and journal-corruption detection.

The watchdog tests drive :class:`MemoryWatchdog` deterministically by
monkeypatching the RSS sampler — trip above the limit, hold inside the
hysteresis band, release below it — against the real
:class:`CircuitBreaker` forced-open mode. The journal tests corrupt
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
from repro.service.workers import CircuitBreaker


class TestForcedBreaker:
    def test_force_open_sheds_until_released(self):
        breaker = CircuitBreaker(failure_threshold=5)
        assert breaker.allow()
        breaker.force_open("rss over limit")
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.stats()["forced_open"] == "rss over limit"
        breaker.release_forced()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_repeated_force_open_counts_one_trip(self):
        breaker = CircuitBreaker()
        breaker.force_open("first")
        breaker.force_open("still over")
        assert breaker.forced_trips == 1
        assert breaker.stats()["forced_open"] == "still over"

    def test_forced_hold_is_independent_of_failure_state(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=0.0)
        breaker.record_failure()  # failure-opened, cooldown already over
        breaker.force_open("pressure")
        assert not breaker.allow()  # forced wins over the half-open probe
        breaker.release_forced()
        assert breaker.allow()  # back to the failure-driven half-open


class TestMemoryWatchdog:
    def watchdog(self, monkeypatch, readings):
        values = iter(readings)
        monkeypatch.setattr(
            memwatch_module, "read_rss_mb", lambda: next(values)
        )
        return MemoryWatchdog(CircuitBreaker(), max_rss_mb=100.0)

    def test_trips_above_limit_and_releases_below_hysteresis(
        self, monkeypatch
    ):
        dog = self.watchdog(monkeypatch, [50.0, 150.0, 95.0, 80.0])
        dog.sample_once()
        assert not dog.stats()["shedding"]
        dog.sample_once()  # 150 > 100: trip
        assert dog.stats()["shedding"]
        assert not dog.breaker.allow()
        dog.sample_once()  # 95 is inside the hysteresis band: hold
        assert dog.stats()["shedding"]
        dog.sample_once()  # 80 < 90: release
        assert not dog.stats()["shedding"]
        assert dog.breaker.allow()
        assert dog.stats()["trips"] == 1
        assert dog.stats()["samples"] == 4

    def test_unavailable_proc_is_inert(self, monkeypatch):
        dog = self.watchdog(monkeypatch, [None, None])
        assert dog.sample_once() is None
        assert not dog.stats()["shedding"]
        assert dog.stats()["rss_mb"] is None
        assert dog.breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryWatchdog(CircuitBreaker(), max_rss_mb=0)
        with pytest.raises(ValueError):
            MemoryWatchdog(
                CircuitBreaker(), max_rss_mb=10, interval_seconds=0
            )

    def test_read_rss_mb_on_this_platform(self):
        rss = read_rss_mb()
        if rss is None:
            pytest.skip("no /proc on this platform")
        assert rss > 0


def _seed_queue(directory):
    queue = DurableJobQueue(directory)
    queue.submit("claim-one", "g1", 0, "scope", {"title": "a"})
    queue.submit("claim-two", "g2", 0, "scope", {"title": "b"})
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
        assert [j.key for j in queue.pending_jobs()] == ["claim-two"]
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

    def test_degraded_acks_are_not_reused_by_idempotency(self, tmp_path):
        queue = DurableJobQueue(
            tmp_path,
            reusable_result=lambda payload: not payload.get("degraded"),
        )
        queue.submit("k1", "g1", 0, "scope", {"title": "a"})
        [job] = queue.lease_group("w", 30.0)
        queue.ack(job.id, {"status": "unverifiable", "degraded": "no_exec"})
        revived, payload = queue.submit(
            "k1", "g2", 0, "scope", {"title": "a"}
        )
        assert payload is None, "degraded ack must not short-circuit"
        assert revived.id != job.id
        # A full-quality ack, by contrast, is reused.
        [job2] = queue.lease_group("w", 30.0)
        queue.ack(job2.id, {"status": "verified"})
        _, reused = queue.submit("k1", "g3", 0, "scope", {"title": "a"})
        assert reused == {"status": "verified"}
        queue.close()
