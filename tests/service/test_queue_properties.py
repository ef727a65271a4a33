"""Property tests for the queue's delivery and durability invariants.

Hypothesis drives the three contracts the service core stands on:

- **Crash anywhere**: replaying *any* prefix of the journal (a crash can
  land between any two appended records) and running what it resumes
  never double-acks a job and never resurrects an acked one.
- **Stream order**: a subscriber observes acks in global ack order —
  the HTTP layer's claim-event ordering guarantee is the queue's, not
  the handler's.
- **No dedupe**: submitting any sequence of equal and distinct
  documents runs every submission exactly once, and each subscriber
  sees its own job's payload; an acked job leaves the queue.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.service.queue import JOURNAL_NAME, DurableJobQueue


def ignore(kind, job, payload):
    pass


def submit(queue, article="text", subscriber=ignore):
    """Admit one single-claim document; returns its job."""
    [job] = queue.submit_group(
        scope="scope",
        source={"article": article, "title": "t"},
        subscribers=[subscriber],
    )
    return job


def drain_all(queue):
    """Lease and ack everything leasable; returns acked job ids."""
    acked = []
    while True:
        batch = queue.lease_group()
        if not batch:
            return acked
        for job in batch:
            if queue.ack(job.id, {"status": "verified", "id": job.id}):
                acked.append(job.id)


@settings(max_examples=40, deadline=None)
@given(
    n_jobs=st.integers(min_value=1, max_value=5),
    ack_mask=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_any_journal_prefix_replays_consistently(n_jobs, ack_mask):
    """Cut the journal after every record; each prefix must be sane."""
    with tempfile.TemporaryDirectory() as tmp:
        queue = DurableJobQueue(tmp)
        jobs = [submit(queue, f"doc {i}") for i in range(n_jobs)]
        leased = {
            job.id
            for batch in iter(queue.lease_group, [])
            for job in batch
        }
        assert leased == {job.id for job in jobs}
        for job, ack in zip(jobs, ack_mask):
            if ack:
                queue.ack(job.id, {"status": "verified", "id": job.id})
        # Simulate a crash: no drain, no close, no compaction.
        lines = (Path(tmp) / JOURNAL_NAME).read_bytes().splitlines(True)

        for cut in range(len(lines) + 1):
            prefix = lines[:cut]
            acked_in_prefix = {
                record["id"]
                for record in map(json.loads, prefix)
                if record.get("op") == "ack"
            }
            put_in_prefix = {
                record["job"]["id"]
                for record in map(json.loads, prefix)
                if record.get("op") == "put"
            }
            with tempfile.TemporaryDirectory() as replay_dir:
                (Path(replay_dir) / JOURNAL_NAME).write_bytes(
                    b"".join(prefix)
                )
                replayed = DurableJobQueue(replay_dir)
                # Replay partitions journaled jobs into acked-in-prefix
                # (gone, never re-delivered) and unacked (re-delivered
                # exactly once). No job appears twice.
                pending = [job.id for job in replayed.pending_jobs()]
                assert len(set(pending)) == len(pending)
                redelivered = drain_all(replayed)
                assert sorted(redelivered) == sorted(pending)
                assert set(redelivered) == put_in_prefix - acked_in_prefix
                assert not any(map(replayed.job, acked_in_prefix))
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
        observed.append(job.id)

    jobs = [submit(queue, f"doc {i}", subscriber) for i in range(6)]
    for batch in iter(queue.lease_group, []):
        pass
    for position in order:
        queue.ack(jobs[position].id, {"status": "verified"})
    assert observed == [jobs[position].id for position in order]


@settings(max_examples=60, deadline=None)
@given(
    articles=st.lists(
        st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=12
    )
)
def test_every_submission_ends_exactly_once(articles):
    queue = DurableJobQueue()
    inboxes: list[list] = []
    for ordinal, article in enumerate(articles):
        inbox: list = []
        inboxes.append(inbox)
        submit(
            queue,
            article,
            lambda kind, job, p, inbox=inbox: inbox.append((job.id, p)),
        )
        if ordinal == len(articles) // 2:
            drain_all(queue)
    drain_all(queue)
    # One execution per submission: equal documents never share a job,
    # and no acked job stays in the queue.
    stats = queue.stats()
    assert stats["enqueued"] == stats["acked"] == len(articles)
    assert stats["duplicate_acks"] == 0 and not queue._jobs
    # Every submission got exactly one result: its own job's payload.
    assert all(len(inbox) == 1 for inbox in inboxes)
    assert all(payload["id"] == job_id for [(job_id, payload)] in inboxes)
    assert len({job_id for [(job_id, _)] in inboxes}) == len(articles)
