"""Durable job queue: the service's unit of admitted work.

``POST /check`` no longer pins a thread per in-flight document: admission
decomposes the document into one *job per claim* (grouped so a document's
claims still verify as one joint batch) and enqueues them here.
Workers lease a group, run it once, and end every job of it: ``ack``
with the verdict payload, or — when running or acking the group raised —
``fail_group``, which moves each still-unacked job to the dead-letter
queue surfaced via ``GET /deadletter``. A verdict is a deterministic
function of the document and the data, so a failure would fail again:
there is no retry, and a lease has no deadline because a worker thread
cannot die holding one (see :mod:`repro.service.workers`).

**Delivery semantics.** Each job ends exactly once in this process —
acked, dead, or ``drained`` at shutdown — and only the first ``ack``
wins; later acks for the same job are counted (``duplicate_acks``) and
dropped, so no subscriber ever sees two results for one job. An acked
job leaves the queue at once: the queue holds only live and dead jobs.
Subscriber notification happens under the queue lock in ack order, so a
client's event stream can never observe acks out of order. An outcome is
applied and notified *before* it is journaled: a failed journal write
never strands a subscriber, it only means a restart runs the job again,
which is safe because the verdict is deterministic.

**Durability.** Every state change that must survive a crash is one
JSON line in an append-only journal (``queue.journal`` in the queue
directory): ``put`` when a job is admitted, ``ack`` with its payload,
``dead`` with its error. Leases are deliberately *not* journaled: a
restarted process treats every journaled-but-unacked job as pending
again. Every record carries a CRC32 (``crc``) over its canonical
encoding: replay distinguishes a truncated final line (crash mid-write —
stop, everything after is unreachable) from bit corruption *inside* an
intact line (CRC mismatch — quarantine that record, keep replaying,
because later appends were independent writes). Both are counted in
``corrupt_records`` and surfaced through ``stats()``. Compaction
rewrites the journal as a fresh segment via the
write-temp-then-``os.replace`` recipe (write a sibling temp file, fsync,
rename it over the journal) once completed records dominate, so the
journal stays O(live jobs), not O(history). ``directory=None`` runs the
same queue fully in memory (tests, ephemeral servers).

**Backpressure.** The queue is bounded: :meth:`submit_group` raises
:class:`~repro.errors.QueueFullError` carrying a depth-aware
``retry_after_seconds`` estimate when a group would take the queue past
``capacity`` live (pending + leased) jobs, which the HTTP front end
converts into ``429`` + ``Retry-After``.

**No dedupe.** Every submission is its own group of fresh jobs, even
when an equal document is pending or was acked a moment ago: a verdict
is a function of the whole document, and the one memo of verdicts is
the service's per-document incremental tier
(:mod:`repro.service.incremental`), keyed by each job's ``document``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import uuid
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import faults
from repro.errors import QueueFullError, ReproError

#: Journal format version (bump when the record layout changes).
#: v2: every record carries a ``crc`` checksum field.
#: v3: a ``put`` carries ``document`` in place of ``key`` and
#: ``claim_fp``; a v2 ``put`` still replays, as a job nothing memoizes.
JOURNAL_VERSION = 3
#: Journal file name inside the queue directory.
JOURNAL_NAME = "queue.journal"


def _record_crc(record: dict) -> int:
    """CRC32 of a record's canonical encoding (without its ``crc`` field).

    Canonical = sorted keys, no whitespace: the checksum must not depend
    on the key order the writer happened to use.
    """
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(body.encode("utf-8"))


def _encode_record(record: dict) -> str:
    """One journal line: the record plus its ``crc``, newline-terminated."""
    stamped = dict(record)
    stamped["crc"] = _record_crc(record)
    return json.dumps(stamped, separators=(",", ":")) + "\n"


def scan_journal(path: str | Path) -> dict:
    """Read-only structural scrub of one journal file (``repro scrub``).

    Replicates replay's corruption taxonomy — truncated tail stops the
    scan, an intact line with a bad CRC is counted and skipped — without
    constructing a queue (which would replay, compact, and *rewrite* the
    file; a scrubber must never mutate the state it is checking).
    """
    report = {
        "path": str(path),
        "present": True,
        "records": 0,
        "corrupt": 0,
        "truncated": False,
    }
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        report["present"] = False
        return report
    for line in raw.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            report["corrupt"] += 1
            report["truncated"] = True
            break
        if not isinstance(record, dict) or record.pop(
            "crc", None
        ) != _record_crc(record):
            report["corrupt"] += 1
            continue
        report["records"] += 1
    return report

# Job lifecycle states.
PENDING = "pending"
LEASED = "leased"
ACKED = "acked"
DEAD = "dead"

#: Subscriber callback: ``(kind, job, payload)`` where kind is one of
#: ``"ack"`` (payload = verdict), ``"dead"`` (payload = error string), or
#: ``"drained"`` (payload = None; the job was journaled for a restart).
Subscriber = Callable[[str, "Job", object], None]


@dataclass
class Job:
    """One unit of admitted work: a single claim of one document."""

    id: str
    #: Joint-execution batch: jobs sharing a group are leased and verified
    #: together so document-level inference stays identical to the
    #: synchronous path.
    group: str
    #: Claim ordinal within the rebuilt document.
    index: int
    #: Checker scope fingerprint (database content + config + dictionary).
    scope: str
    #: JSON-serializable material to rebuild the database, document, and
    #: claim after a restart (CSV paths / inline tables / article text).
    source: dict
    #: Document fingerprint the group's verdicts are memoized under in
    #: the incremental tier ("" = do not memoize).
    document: str = ""
    attempts: int = 0
    state: str = PENDING
    error: str | None = None
    #: Admission order; pending jobs are leased lowest-seq-first.
    seq: int = 0
    subscribers: list[Subscriber] = field(default_factory=list)

    def snapshot(self) -> dict:
        """The public JSON shape (health/stats/deadletter endpoints)."""
        return {
            "id": self.id,
            "group": self.group,
            "index": self.index,
            "scope": self.scope,
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
            "title": self.source.get("title"),
        }


class DurableJobQueue:
    """Bounded, crash-survivable FIFO of claim jobs with lease/ack/DLQ."""

    def __init__(
        self,
        directory: str | Path | None = None,
        capacity: int = 1024,
        compact_min_records: int = 1024,
        fsync: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.compact_min_records = compact_min_records
        self.fsync = fsync
        self.directory = Path(directory) if directory is not None else None
        self._cond = threading.Condition()
        #: Live (pending, leased) and dead jobs; an acked job leaves.
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        self._journal = None
        self._journal_records = 0
        self._draining = False
        self._closed = False
        self.started = time.monotonic()
        # Counters (all monotonic; read via stats()).
        self.enqueued = 0
        self.acked = 0
        self.duplicate_acks = 0
        self.deadlettered = 0
        self.rejected = 0
        self.resumed = 0
        self.corrupt_records = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._replay()
            self._open_journal()

    # ------------------------------------------------------------------
    # Journal

    @property
    def journal_path(self) -> Path:
        assert self.directory is not None
        return self.directory / JOURNAL_NAME

    def _replay(self) -> None:
        """Rebuild state from the journal; unacked jobs become pending."""
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            return
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                # A crash mid-append leaves one truncated tail line;
                # anything after it is unreachable by construction
                # (appends are sequential), so stop replaying here.
                self.corrupt_records += 1
                break
            if not isinstance(record, dict) or record.pop(
                "crc", None
            ) != _record_crc(record):
                # The line parses but its checksum does not match: bit
                # corruption within an intact record (or a pre-v2 record
                # with no checksum). Unlike truncation this says nothing
                # about later lines — they were independent appends — so
                # quarantine this record and keep replaying.
                self.corrupt_records += 1
                continue
            self._journal_records += 1
            self._apply(record)
        self.resumed = sum(
            1 for job in self._jobs.values() if job.state == PENDING
        )

    def _apply(self, record: dict) -> None:
        op = record.get("op")
        if op == "put":
            data = record.get("job") or {}
            try:
                job = Job(
                    id=str(data["id"]),
                    group=str(data["group"]),
                    index=int(data["index"]),
                    scope=str(data.get("scope", "")),
                    source=dict(data.get("source") or {}),
                    document=str(data.get("document", "")),
                    attempts=int(data.get("attempts", 0)),
                )
            except (KeyError, TypeError, ValueError):
                self.corrupt_records += 1
                return
            self._seq += 1
            job.seq = self._seq
            self._jobs[job.id] = job
        elif op == "ack":
            self._jobs.pop(str(record.get("id")), None)
        elif op == "dead":
            job = self._jobs.get(str(record.get("id")))
            if job is not None:
                job.state = DEAD
                job.error = str(record.get("error", ""))

    def _open_journal(self) -> None:
        self._journal = open(self.journal_path, "a", encoding="utf-8")
        if self._journal_records and self._should_compact():
            self._compact_locked()

    def _append(self, record: dict) -> None:
        if self._journal is None:
            return
        self._journal.write(_encode_record(record))
        self._journal.flush()
        if self.fsync:
            os.fsync(self._journal.fileno())
        self._journal_records += 1
        # Fault point: flip one byte of the journal after the append —
        # replay's CRC (and the offline scrubber) must catch it.
        faults.fire("state.bitflip", key="journal", payload=self.journal_path)

    def _should_compact(self) -> bool:
        live = sum(
            1 for job in self._jobs.values() if job.state in (PENDING, LEASED)
        )
        return (
            self._journal_records >= self.compact_min_records
            and self._journal_records > 4 * max(live, 1)
        )

    def _compact_locked(self) -> None:
        """Rewrite the journal as one fresh segment (atomic ``os.replace``).

        Acked jobs left the queue at ack, so the fresh segment drops
        their put and ack records together and can never re-deliver
        them. Pending/leased jobs are re-put (leases are volatile) and
        dead jobs keep their tombstones so the dead-letter queue
        survives restarts.
        """
        if self.directory is None:
            return
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=JOURNAL_NAME, suffix=".tmp"
        )
        records = 0
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for job in sorted(self._jobs.values(), key=lambda j: j.seq):
                    handle.write(_encode_record(self._put_record(job)))
                    records += 1
                    if job.state == DEAD:
                        handle.write(
                            _encode_record(
                                {"op": "dead", "id": job.id, "error": job.error}
                            )
                        )
                        records += 1
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.journal_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._journal_records = records
        self._journal = open(self.journal_path, "a", encoding="utf-8")

    @staticmethod
    def _put_record(job: Job) -> dict:
        return {
            "op": "put",
            "v": JOURNAL_VERSION,
            "job": {
                "id": job.id,
                "group": job.group,
                "index": job.index,
                "scope": job.scope,
                "source": job.source,
                "document": job.document,
            },
        }

    # ------------------------------------------------------------------
    # Admission

    def depth(self) -> int:
        """Live (pending + leased) jobs — the backpressure signal."""
        with self._cond:
            return self._live_locked()

    def _live_locked(self) -> int:
        return sum(
            1 for job in self._jobs.values() if job.state in (PENDING, LEASED)
        )

    def retry_after_seconds(self) -> float:
        """Depth-aware 429 hint: roughly how long until capacity frees up."""
        with self._cond:
            live = self._live_locked()
        elapsed = max(time.monotonic() - self.started, 1e-6)
        rate = self.acked / elapsed
        if rate <= 0:
            return float(min(30, max(1, live)))
        return float(min(60.0, max(1.0, live / rate)))

    def submit_group(
        self,
        scope: str,
        source: dict,
        subscribers: list[Subscriber],
        document: str = "",
    ) -> list[Job]:
        """Admit one document's claims as one group (all-or-nothing).

        Job ``i`` is claim ``i`` of the document rebuilt from ``source``
        and tells ``subscribers[i]`` how it ended. ``document`` is the
        memo key its verdicts are stored under ("" = do not memoize).
        Holding the lock across the batch matters for *bit-identity*: a
        worker must never lease a partially-admitted group, or the
        document's claims would verify as two smaller joint batches
        whose pooled priors differ from the synchronous path. Either
        every job is admitted or none is and :class:`QueueFullError`
        carries the retry hint.
        """
        with self._cond:
            if self._closed or self._draining:
                raise ReproError("queue is draining; resubmit after restart")
            if self._live_locked() + len(subscribers) > self.capacity:
                self.rejected += 1
                raise QueueFullError(
                    self.capacity, self.retry_after_seconds()
                )
            group = uuid.uuid4().hex
            jobs = []
            for index, subscriber in enumerate(subscribers):
                self._seq += 1
                jobs.append(
                    Job(
                        id=uuid.uuid4().hex,
                        group=group,
                        index=index,
                        scope=scope,
                        source=source,
                        document=document,
                        seq=self._seq,
                        subscribers=[subscriber],
                    )
                )
            # Journal the whole group before registering any of it: an
            # append that raises (a full disk) leaves no job to run for
            # a request that was refused.
            for job in jobs:
                self._append(self._put_record(job))
            for job in jobs:
                self._jobs[job.id] = job
            self.enqueued += len(jobs)
            self._cond.notify()
            return jobs

    # ------------------------------------------------------------------
    # Lease / ack / fail

    def lease_group(self, timeout: float | None = None) -> list[Job]:
        """Lease the oldest pending job *and every pending job in its group*.

        Jobs of one group are the claims of one document: verifying
        them as one batch keeps joint inference identical to the
        synchronous path. Blocks up to ``timeout`` seconds for work
        (None = do not block); returns ``[]`` when none is pending.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            while True:
                if self._closed or self._draining:
                    return []
                pending = [
                    job for job in self._jobs.values() if job.state == PENDING
                ]
                if pending:
                    head = min(pending, key=lambda job: job.seq)
                    batch = sorted(
                        (job for job in pending if job.group == head.group),
                        key=lambda job: job.index,
                    )
                    for job in batch:
                        job.state = LEASED
                        job.attempts += 1
                    return batch
                if deadline is None:
                    return []
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)

    def ack(self, job_id: str, payload: dict) -> bool:
        """Complete one job with its verdict payload. First ack wins.

        A late ack (the job already acked or dead-lettered) is counted
        and dropped — subscribers never see a duplicate result. The job
        leaves the queue and its subscribers are told before the journal
        write, so a write that raises leaves the outcome delivered, only
        unjournaled.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state == DEAD:
                self.duplicate_acks += 1
                return False
            del self._jobs[job_id]
            job.state = ACKED
            self.acked += 1
            self._notify_locked(job, "ack", payload)
            self._cond.notify_all()
            self._append({"op": "ack", "id": job.id, "payload": payload})
            if self._should_compact():
                self._compact_locked()
            return True

    def fail_group(self, job_ids: list[str], error: str) -> None:
        """Dead-letter every still-unacked job of a failed group, once.

        As in :meth:`ack`, the jobs end and their subscribers are told
        before the ``dead`` records are written.
        """
        with self._cond:
            jobs = [
                job
                for job in (self._jobs.get(job_id) for job_id in job_ids)
                if job is not None and job.state != DEAD
            ]
            for job in jobs:
                job.state = DEAD
                job.error = error
                self.deadlettered += 1
                self._notify_locked(job, "dead", error)
            self._cond.notify_all()
            for job in jobs:
                self._append({"op": "dead", "id": job.id, "error": error})

    def _notify_locked(self, job: Job, kind: str, payload: object) -> None:
        # Under the queue lock on purpose: acks notify in ack order, so a
        # subscriber's stream can never interleave out of order. Callbacks
        # must therefore be cheap and non-blocking
        # (loop.call_soon_threadsafe in the asyncio front end).
        for subscriber in job.subscribers:
            try:
                subscriber(kind, job, payload)
            except Exception:
                pass
        if kind in ("ack", "dead"):
            job.subscribers.clear()

    # ------------------------------------------------------------------
    # Introspection / shutdown

    def job(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def pending_jobs(self) -> list[Job]:
        with self._cond:
            return sorted(
                (j for j in self._jobs.values() if j.state == PENDING),
                key=lambda job: job.seq,
            )

    def deadletter(self) -> list[dict]:
        """The quarantine, oldest first (``GET /deadletter``)."""
        with self._cond:
            return [
                job.snapshot()
                for job in sorted(
                    (j for j in self._jobs.values() if j.state == DEAD),
                    key=lambda job: job.seq,
                )
            ]

    def stats(self) -> dict:
        with self._cond:
            states = {PENDING: 0, LEASED: 0, DEAD: 0}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "capacity": self.capacity,
                "depth": states[PENDING] + states[LEASED],
                "pending": states[PENDING],
                "leased": states[LEASED],
                "deadletter": states[DEAD],
                "enqueued": self.enqueued,
                "acked": self.acked,
                "duplicate_acks": self.duplicate_acks,
                "deadlettered": self.deadlettered,
                "rejected": self.rejected,
                "resumed": self.resumed,
                "corrupt_records": self.corrupt_records,
                "journal_records": self._journal_records,
                "durable": self.directory is not None,
            }

    def drain(self, timeout: float = 30.0) -> int:
        """Graceful shutdown: stop admitting, let leased jobs finish.

        Blocks until no job is leased (or ``timeout``); pending jobs stay
        journaled for the next process and their subscribers are told
        (``"drained"``) so in-flight streams can close cleanly. Returns
        the number of jobs left journaled.
        """
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            deadline = time.monotonic() + timeout
            while any(
                job.state == LEASED for job in self._jobs.values()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            pending = [
                job for job in self._jobs.values() if job.state == PENDING
            ]
            for job in pending:
                self._notify_locked(job, "drained", None)
                job.subscribers.clear()
            return len(pending)

    def close(self) -> None:
        """Compact and close the journal (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._draining = True
            self._cond.notify_all()
            if self.directory is not None:
                self._compact_locked()
            if self._journal is not None:
                self._journal.close()
                self._journal = None
