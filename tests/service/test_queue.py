"""Unit tests for the durable job queue and the rate limiter.

Delivery semantics (one run per job, first-ack-wins, a failed group
dead-letters once, an acked job leaves the queue, equal submissions
never share a job), durability (journal replay, truncated tails,
compaction), backpressure, the client's retry jitter bounds, and
per-client token buckets are pure control-plane logic: no checker is
involved.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import QueueFullError, ReproError
from repro.harness.parallel import RetryPolicy
from repro.service.queue import JOURNAL_NAME, DurableJobQueue, _encode_record
from repro.service.ratelimit import ClientRateLimiter, TokenBucket


def ignore(kind, job, payload):
    pass


def submit(queue, claims=1, subscriber=ignore):
    """Admit one document of ``claims`` claims; returns its jobs."""
    return queue.submit_group(
        scope="scope",
        source={"article": "text", "title": "t"},
        subscribers=[subscriber] * claims,
    )


class Recorder:
    """Subscriber capturing every (kind, job id, payload) notification."""

    def __init__(self):
        self.events = []

    def __call__(self, kind, job, payload):
        self.events.append((kind, job.id, payload))


class TestLeaseAckNack:
    def test_ack_delivers_payload_to_subscriber(self):
        queue = DurableJobQueue()
        seen = Recorder()
        [job] = submit(queue, subscriber=seen)
        batch = queue.lease_group()
        assert [j.id for j in batch] == [job.id]
        assert queue.ack(job.id, {"status": "verified"})
        assert seen.events == [("ack", job.id, {"status": "verified"})]
        assert queue.stats()["acked"] == 1

    def test_group_is_leased_together_in_index_order(self):
        queue = DurableJobQueue()
        jobs = submit(queue, claims=3)
        submit(queue)
        batch = queue.lease_group()
        assert [j.index for j in batch] == [0, 1, 2]
        assert {j.id for j in batch} == {j.id for j in jobs}

    def test_leased_jobs_are_not_re_leased(self):
        queue = DurableJobQueue()
        submit(queue)
        assert queue.lease_group()
        assert queue.lease_group() == []

    def test_first_ack_wins_duplicates_are_dropped(self):
        queue = DurableJobQueue()
        seen = Recorder()
        [job] = submit(queue, subscriber=seen)
        queue.lease_group()
        assert queue.ack(job.id, {"status": "verified"})
        assert not queue.ack(job.id, {"status": "contradicted"})
        assert len(seen.events) == 1
        assert queue.stats()["duplicate_acks"] == 1

    def test_exhausted_attempts_dead_letter_with_notification(self):
        queue = DurableJobQueue()
        seen = Recorder()
        [job] = submit(queue, subscriber=seen)
        queue.lease_group()
        queue.fail_group([job.id], "poison claim")
        assert job.state == "dead"
        assert seen.events == [("dead", job.id, "poison claim")]
        dead = queue.deadletter()
        assert len(dead) == 1
        assert dead[0]["error"] == "poison claim"
        assert dead[0]["attempts"] == 1

class TestNoDedupe:
    def test_equal_submissions_are_separate_jobs(self):
        queue = DurableJobQueue()
        first, second = Recorder(), Recorder()
        [job] = submit(queue, subscriber=first)
        [again] = submit(queue, subscriber=second)
        assert again.id != job.id and again.group != job.group
        assert queue.stats()["enqueued"] == 2
        for batch in iter(queue.lease_group, []):
            for leased in batch:
                queue.ack(leased.id, {"status": "verified"})
        assert first.events == [("ack", job.id, {"status": "verified"})]
        assert second.events == [("ack", again.id, {"status": "verified"})]

    def test_acked_job_leaves_the_queue(self):
        queue = DurableJobQueue()
        acked = [job for _ in range(50) for job in submit(queue, claims=2)]
        for batch in iter(queue.lease_group, []):
            for job in batch:
                queue.ack(job.id, {"status": "verified"})
        [dead] = submit(queue)
        queue.lease_group()
        queue.fail_group([dead.id], "boom")
        [live] = submit(queue)
        assert set(queue._jobs) == {dead.id, live.id}
        assert all(queue.job(job.id) is None for job in acked)
        assert queue.stats()["acked"] == len(acked)
        assert not queue.ack(acked[0].id, {"status": "verified"})
        assert queue.stats()["duplicate_acks"] == 1

    def test_dead_group_resubmits_as_fresh_jobs(self):
        queue = DurableJobQueue()
        [job] = submit(queue)
        queue.lease_group()
        queue.fail_group([job.id], "boom")
        assert job.state == "dead"
        [revived] = submit(queue)
        assert revived.id != job.id
        assert revived.attempts == 0
        assert [d["id"] for d in queue.deadletter()] == [job.id]


class TestBackpressure:
    def test_capacity_rejects_with_retry_after(self):
        queue = DurableJobQueue(capacity=2)
        submit(queue)
        submit(queue)
        with pytest.raises(QueueFullError) as excinfo:
            submit(queue)
        assert excinfo.value.retry_after_seconds >= 1.0
        assert queue.stats()["rejected"] == 1

    def test_a_group_is_admitted_whole_or_not_at_all(self):
        queue = DurableJobQueue(capacity=3)
        submit(queue, claims=2)
        with pytest.raises(QueueFullError):
            submit(queue, claims=2)
        assert queue.stats()["enqueued"] == 2
        submit(queue)  # one claim still fits

    def test_acked_jobs_free_capacity(self):
        queue = DurableJobQueue(capacity=1)
        [job] = submit(queue)
        queue.lease_group()
        queue.ack(job.id, {"status": "verified"})
        submit(queue)  # does not raise

    def test_draining_queue_refuses_admission(self):
        queue = DurableJobQueue()
        queue.drain(timeout=0.1)
        with pytest.raises(ReproError):
            submit(queue)


class TestDurability:
    def test_restart_resumes_unacked_jobs_only(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        done, kept = submit(queue, claims=2)
        queue.lease_group()
        queue.ack(done.id, {"status": "verified"})
        # Crash: no drain, no close. The lease on "kept" is volatile.
        queue._journal.close()

        reborn = DurableJobQueue(tmp_path)
        assert reborn.resumed == 1
        batch = reborn.lease_group()
        assert [j.id for j in batch] == [kept.id]
        assert batch[0].source == {"article": "text", "title": "t"}
        # The journaled ack keeps the done job out of the reborn queue.
        assert reborn.job(done.id) is None

    def test_v2_put_replays_as_an_unmemoized_job(self, tmp_path):
        """A put journaled before jobs carried their document fingerprint
        (``key`` and ``claim_fp`` instead) still runs after a restart;
        its empty ``document`` keeps its verdict out of the memo."""
        record = {
            "op": "put",
            "v": 2,
            "job": {
                "id": "legacy",
                "key": "scope:claim",
                "group": "g",
                "index": 0,
                "scope": "scope",
                "source": {"article": "text", "title": "t"},
                "claim_fp": "claim",
            },
        }
        (tmp_path / JOURNAL_NAME).write_text(_encode_record(record))
        reborn = DurableJobQueue(tmp_path)
        assert reborn.corrupt_records == 0 and reborn.resumed == 1
        [job] = reborn.lease_group()
        assert (job.id, job.document) == ("legacy", "")
        assert reborn.ack(job.id, {"status": "verified"})

    def test_a_failed_put_append_admits_nothing(self, tmp_path, monkeypatch):
        queue = DurableJobQueue(tmp_path)
        append = queue._append
        calls = []

        def full_disk(record):
            calls.append(record)
            if len(calls) == 2:
                raise OSError("No space left on device")
            append(record)

        monkeypatch.setattr(queue, "_append", full_disk)
        with pytest.raises(OSError):
            submit(queue, claims=3)
        assert queue.lease_group() == []
        assert queue.stats()["enqueued"] == 0 and not queue._jobs

    def test_dead_letter_survives_restart(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        [job] = submit(queue)
        queue.lease_group()
        queue.fail_group([job.id], "poison")
        queue.close()

        reborn = DurableJobQueue(tmp_path)
        dead = reborn.deadletter()
        assert len(dead) == 1 and dead[0]["error"] == "poison"
        assert reborn.lease_group() == []

    def test_truncated_tail_is_tolerated(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        submit(queue)
        submit(queue)
        queue.close()
        path = tmp_path / "queue.journal"
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # crash mid-append

        reborn = DurableJobQueue(tmp_path)
        assert reborn.corrupt_records == 1
        assert reborn.resumed == 1  # the first intact, the second truncated

    def test_compaction_drops_completed_jobs(self, tmp_path):
        queue = DurableJobQueue(tmp_path, compact_min_records=1)
        jobs = submit(queue, claims=8)
        queue.lease_group()
        for job in jobs[:-1]:
            queue.ack(job.id, {"status": "verified"})
        queue.close()
        lines = [
            json.loads(line)
            for line in (tmp_path / "queue.journal").read_text().splitlines()
        ]
        # Only the unacked job survives compaction; acked job ids are
        # gone entirely (job + ack records dropped together).
        assert [r["job"]["id"] for r in lines] == [jobs[-1].id]

    def test_drain_notifies_pending_and_reports_journaled(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        seen = Recorder()
        [job] = submit(queue, subscriber=seen)
        journaled = queue.drain(timeout=0.1)
        assert journaled == 1
        assert seen.events == [("drained", job.id, None)]
        queue.close()
        assert DurableJobQueue(tmp_path).resumed == 1


class TestRetryJitter:
    def test_sleep_seconds_is_bounded_by_base_and_cap(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.2)
        rng = random.Random(7)
        previous = None
        for ordinal in range(1, 30):
            slept = policy.sleep_seconds(ordinal, previous=previous, rng=rng)
            assert 0.05 <= slept <= 0.2
            previous = slept

    def test_decorrelated_growth_never_exceeds_three_times_previous(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=100.0)
        rng = random.Random(11)
        previous = policy.sleep_seconds(1, rng=rng)
        for ordinal in range(2, 20):
            slept = policy.sleep_seconds(ordinal, previous=previous, rng=rng)
            assert slept <= 3.0 * previous + 1e-12
            previous = slept

    def test_deterministic_backoff_schedule_is_unchanged(self):
        # The jitter satellite must not disturb the pinned deterministic
        # schedule used by the corpus harness.
        policy = RetryPolicy(backoff_base=0.05, backoff_cap=0.2)
        assert [policy.backoff_seconds(n) for n in (1, 2, 3, 10)] == [
            0.05, 0.1, 0.2, 0.2,
        ]


class TestRateLimiter:
    def test_burst_passes_then_limited_with_retry_after(self):
        limiter = ClientRateLimiter(rate=1.0, burst=2.0)
        assert limiter.allow("alice") == (True, 0.0)
        assert limiter.allow("alice") == (True, 0.0)
        allowed, retry_after = limiter.allow("alice")
        assert not allowed and 0.0 < retry_after <= 1.0

    def test_clients_are_metered_independently(self):
        limiter = ClientRateLimiter(rate=0.001, burst=1.0)
        assert limiter.allow("alice")[0]
        assert not limiter.allow("alice")[0]
        assert limiter.allow("bob")[0]

    def test_zero_rate_disables_limiting(self):
        limiter = ClientRateLimiter(rate=0.0)
        for _ in range(100):
            assert limiter.allow("alice") == (True, 0.0)
        assert limiter.stats()["enabled"] is False

    def test_tokens_refill_over_time(self):
        bucket = TokenBucket(rate=10.0, burst=1.0, now=0.0)
        assert bucket.take(0.0)
        assert not bucket.take(0.01)
        assert bucket.take(0.2)  # 0.19s * 10/s restored the token

    def test_lru_bound_evicts_oldest_client(self):
        limiter = ClientRateLimiter(rate=0.001, burst=1.0, max_clients=2)
        limiter.allow("a")
        limiter.allow("b")
        limiter.allow("c")  # evicts a
        assert limiter.stats()["clients"] == 2
        # a comes back as a fresh bucket (full burst again) — eviction
        # may refill, never block.
        assert limiter.allow("a")[0]
