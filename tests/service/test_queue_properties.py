"""Property tests for the queue's delivery and durability invariants.

Hypothesis drives the three contracts the service core stands on:

- **Crash anywhere**: replaying *any* prefix of the journal (a crash can
  land between any two appended records) and running what it resumes
  never double-acks a job and never resurrects an acked one.
- **Stream order**: a subscriber observes acks in global ack order —
  the HTTP layer's claim-event ordering guarantee is the queue's, not
  the handler's.
- **Idempotency**: resubmitting any multiset of keys executes each
  distinct key exactly once, and every subscriber of a key sees that
  key's single payload.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.service.queue import JOURNAL_NAME, DurableJobQueue


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


def drain_all(queue):
    """Lease and ack everything leasable; returns acked job keys."""
    acked = []
    while True:
        batch = queue.lease_group()
        if not batch:
            return acked
        for job in batch:
            if queue.ack(job.id, {"status": "verified", "key": job.key}):
                acked.append(job.key)


@settings(max_examples=40, deadline=None)
@given(
    n_jobs=st.integers(min_value=1, max_value=5),
    ack_mask=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_any_journal_prefix_replays_consistently(n_jobs, ack_mask):
    """Cut the journal after every record; each prefix must be sane."""
    with tempfile.TemporaryDirectory() as tmp:
        queue = DurableJobQueue(tmp)
        jobs = [
            submit(queue, f"k{i}", group=f"g{i % 2}", index=i)[0]
            for i in range(n_jobs)
        ]
        leased = {
            job.id
            for batch in iter(queue.lease_group, [])
            for job in batch
        }
        assert leased == {job.id for job in jobs}
        acked_keys = set()
        for job, ack in zip(jobs, ack_mask):
            if ack:
                queue.ack(job.id, {"status": "verified", "key": job.key})
                acked_keys.add(job.key)
        # Simulate a crash: no drain, no close, no compaction.
        lines = (Path(tmp) / JOURNAL_NAME).read_bytes().splitlines(True)
        key_of = {job.id: job.key for job in jobs}

        for cut in range(len(lines) + 1):
            prefix = lines[:cut]
            acked_in_prefix = {
                key_of[record["id"]]
                for record in map(json.loads, prefix)
                if record.get("op") == "ack"
            }
            put_in_prefix = {
                record["job"]["key"]
                for record in map(json.loads, prefix)
                if record.get("op") == "put"
            }
            with tempfile.TemporaryDirectory() as replay_dir:
                (Path(replay_dir) / JOURNAL_NAME).write_bytes(
                    b"".join(prefix)
                )
                replayed = DurableJobQueue(replay_dir)
                # Replay partitions journaled jobs into acked-in-prefix
                # (answer immediately, never re-deliver) and unacked
                # (re-deliver exactly once). No key appears twice.
                pending = [job.key for job in replayed.pending_jobs()]
                assert len(set(pending)) == len(pending)
                redelivered = drain_all(replayed)
                assert sorted(redelivered) == sorted(pending)
                assert set(redelivered) == put_in_prefix - acked_in_prefix
                for key in acked_in_prefix:
                    job, payload = submit(replayed, key)
                    # Answered from the journaled ack — the original
                    # payload, with no re-execution.
                    assert payload is not None and payload["key"] == key
                # Never double-acked: each live job acked exactly once,
                # no duplicates anywhere in this queue's lifetime.
                stats = replayed.stats()
                assert stats["acked"] == len(redelivered)
                assert stats["duplicate_acks"] == 0
                replayed.close()
        queue.close()


@settings(max_examples=40, deadline=None)
@given(order=st.permutations(list(range(6))))
def test_subscriber_stream_follows_global_ack_order(order):
    queue = DurableJobQueue()
    observed = []

    def subscriber(kind, job, payload):
        observed.append(job.key)

    jobs = [
        submit(queue, f"k{i}", group=f"g{i}", index=0, subscriber=subscriber)[0]
        for i in range(6)
    ]
    for batch in iter(queue.lease_group, []):
        pass
    for position in order:
        queue.ack(jobs[position].id, {"status": "verified"})
    assert observed == [f"k{position}" for position in order]


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(
        st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12
    )
)
def test_idempotency_keys_dedupe_resubmissions(keys):
    queue = DurableJobQueue()
    received: dict[int, list] = {}
    pending_subscribers = 0
    for ordinal, key in enumerate(keys):
        inbox: list = []
        received[ordinal] = inbox
        job, payload = submit(
            queue,
            key,
            group=key,
            index=0,
            subscriber=lambda kind, job, p, inbox=inbox: inbox.append(p),
        )
        if payload is not None:
            # Already completed before this submission — delivered inline.
            inbox.append(payload)
        else:
            pending_subscribers += 1
        if ordinal == len(keys) // 2:
            drain_all(queue)
    drain_all(queue)
    # One execution per distinct key, ever.
    assert queue.stats()["enqueued"] == len(set(keys))
    assert queue.stats()["deduped"] == len(keys) - len(set(keys))
    # Every submission got exactly one result, and all submissions of a
    # key got the same payload.
    by_key: dict[str, dict] = {}
    for ordinal, key in enumerate(keys):
        assert len(received[ordinal]) == 1
        payload = received[ordinal][0]
        assert payload["key"] == key
        assert by_key.setdefault(key, payload) == payload
