"""Unit tests for the durable job queue and the rate limiter.

Delivery semantics (one run per job, first-ack-wins, a failed group
dead-letters once), durability (journal replay, truncated tails,
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
from repro.service.queue import DurableJobQueue
from repro.service.ratelimit import ClientRateLimiter, TokenBucket


def submit(queue, key, group="g", index=0, subscriber=None):
    return queue.submit(
        key=key,
        group=group,
        index=index,
        scope="scope",
        source={"article": "text", "title": "t"},
        claim_fp=key,
        subscriber=subscriber,
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
        job, done = submit(queue, "k1", subscriber=seen)
        assert done is None
        batch = queue.lease_group()
        assert [j.id for j in batch] == [job.id]
        assert queue.ack(job.id, {"status": "verified"})
        assert seen.events == [("ack", job.id, {"status": "verified"})]
        assert queue.stats()["acked"] == 1

    def test_group_is_leased_together_in_index_order(self):
        queue = DurableJobQueue()
        jobs = [
            submit(queue, f"k{i}", group="doc", index=i)[0]
            for i in (2, 0, 1)
        ]
        submit(queue, "other", group="doc2", index=0)
        batch = queue.lease_group()
        assert [j.index for j in batch] == [0, 1, 2]
        assert {j.id for j in batch} == {j.id for j in jobs}

    def test_leased_jobs_are_not_re_leased(self):
        queue = DurableJobQueue()
        submit(queue, "k1")
        assert queue.lease_group()
        assert queue.lease_group() == []

    def test_first_ack_wins_duplicates_are_dropped(self):
        queue = DurableJobQueue()
        seen = Recorder()
        job, _ = submit(queue, "k1", subscriber=seen)
        queue.lease_group()
        assert queue.ack(job.id, {"status": "verified"})
        assert not queue.ack(job.id, {"status": "contradicted"})
        assert len(seen.events) == 1
        assert queue.stats()["duplicate_acks"] == 1

    def test_exhausted_attempts_dead_letter_with_notification(self):
        queue = DurableJobQueue()
        seen = Recorder()
        job, _ = submit(queue, "k1", subscriber=seen)
        queue.lease_group()
        queue.fail_group([job.id], "poison claim")
        assert job.state == "dead"
        assert seen.events == [("dead", job.id, "poison claim")]
        dead = queue.deadletter()
        assert len(dead) == 1
        assert dead[0]["error"] == "poison claim"
        assert dead[0]["attempts"] == 1

class TestIdempotency:
    def test_pending_key_attaches_subscriber_instead_of_new_job(self):
        queue = DurableJobQueue()
        first, second = Recorder(), Recorder()
        job, _ = submit(queue, "k1", subscriber=first)
        again, done = submit(queue, "k1", subscriber=second)
        assert again.id == job.id and done is None
        assert queue.stats()["deduped"] == 1
        queue.lease_group()
        queue.ack(job.id, {"status": "verified"})
        assert first.events == second.events  # one execution, fan-out

    def test_acked_key_returns_payload_immediately(self):
        queue = DurableJobQueue()
        job, _ = submit(queue, "k1")
        queue.lease_group()
        queue.ack(job.id, {"status": "verified"})
        again, done = submit(queue, "k1")
        assert done == {"status": "verified"}
        assert queue.stats()["enqueued"] == 1

    def test_dead_key_revives_as_fresh_job(self):
        queue = DurableJobQueue()
        job, _ = submit(queue, "k1")
        queue.lease_group()
        queue.fail_group([job.id], "boom")
        assert job.state == "dead"
        revived, done = submit(queue, "k1")
        assert done is None and revived.id != job.id
        assert revived.attempts == 0


class TestBackpressure:
    def test_capacity_rejects_with_retry_after(self):
        queue = DurableJobQueue(capacity=2)
        submit(queue, "k1")
        submit(queue, "k2")
        with pytest.raises(QueueFullError) as excinfo:
            submit(queue, "k3")
        assert excinfo.value.retry_after_seconds >= 1.0
        assert queue.stats()["rejected"] == 1

    def test_acked_jobs_free_capacity(self):
        queue = DurableJobQueue(capacity=1)
        job, _ = submit(queue, "k1")
        queue.lease_group()
        queue.ack(job.id, {"status": "verified"})
        submit(queue, "k2")  # does not raise

    def test_draining_queue_refuses_admission(self):
        queue = DurableJobQueue()
        queue.drain(timeout=0.1)
        with pytest.raises(ReproError):
            submit(queue, "k1")


class TestDurability:
    def test_restart_resumes_unacked_jobs_only(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        done, _ = submit(queue, "done", group="g", index=0)
        kept, _ = submit(queue, "kept", group="g", index=1)
        queue.lease_group()
        queue.ack(done.id, {"status": "verified"})
        # Crash: no drain, no close. The lease on "kept" is volatile.
        queue._journal.close()

        reborn = DurableJobQueue(tmp_path)
        assert reborn.resumed == 1
        batch = reborn.lease_group()
        assert [j.key for j in batch] == ["kept"]
        assert batch[0].source == {"article": "text", "title": "t"}
        # The acked job answers from its journaled payload, not a re-run.
        again, payload = submit(reborn, "done")
        assert payload == {"status": "verified"}

    def test_dead_letter_survives_restart(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        job, _ = submit(queue, "k1")
        queue.lease_group()
        queue.fail_group([job.id], "poison")
        queue.close()

        reborn = DurableJobQueue(tmp_path)
        dead = reborn.deadletter()
        assert len(dead) == 1 and dead[0]["error"] == "poison"
        assert reborn.lease_group() == []

    def test_truncated_tail_is_tolerated(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        submit(queue, "k1")
        submit(queue, "k2")
        queue.close()
        path = tmp_path / "queue.journal"
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])  # crash mid-append

        reborn = DurableJobQueue(tmp_path)
        assert reborn.corrupt_records == 1
        assert reborn.resumed == 1  # k1 intact, k2's record truncated

    def test_compaction_drops_completed_jobs(self, tmp_path):
        queue = DurableJobQueue(tmp_path, compact_min_records=1)
        jobs = [submit(queue, f"k{i}", index=i)[0] for i in range(8)]
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
        assert [r["job"]["key"] for r in lines] == [jobs[-1].key]

    def test_drain_notifies_pending_and_reports_journaled(self, tmp_path):
        queue = DurableJobQueue(tmp_path)
        seen = Recorder()
        job, _ = submit(queue, "k1", subscriber=seen)
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
