"""Durable job queue: the service's unit of admitted work.

``POST /check`` no longer pins a thread per in-flight document: admission
decomposes the document into one *job per claim* (grouped so a document's
fresh claims still verify as one joint batch) and enqueues them here.
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
dropped, so no subscriber ever sees two results for one job. Subscriber
notification happens under the queue lock in ack order, so a client's
event stream can never observe acks out of order. An outcome is applied
and notified *before* it is journaled: a failed journal write never
strands a subscriber, it only means a restart runs the job again, which
is safe because the verdict is deterministic.

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
``corrupt_records`` and surfaced through ``stats()``. Compaction rewrites the journal as a fresh segment via the
write-temp-then-``os.replace`` recipe (write a sibling temp file, fsync,
rename it over the journal) once completed records dominate, so the
journal stays O(live jobs), not O(history). ``directory=None`` runs the
same queue fully in memory (tests, ephemeral servers).

**Backpressure.** The queue is bounded: :meth:`submit` raises
:class:`~repro.errors.QueueFullError` carrying a depth-aware
``retry_after_seconds`` estimate once ``capacity`` live (pending +
leased) jobs exist, which the HTTP front end converts into
``429`` + ``Retry-After``.

**Idempotency.** Jobs carry an idempotency key (the service uses
``scope fingerprint + claim fingerprint`` — the exact identity the
incremental tier memoizes under). Submitting a key that is already
pending or leased attaches the new subscriber to the existing job
(one execution, fan-out delivery); a key that already acked returns its
payload immediately; only dead or unknown keys create new jobs. The
``reusable_result`` predicate narrows ack-reuse: the service passes one
that refuses *degraded* payloads, so a verdict produced under an
exhausted space budget or under memory shedding is re-executed on
resubmission rather than pinned forever by queue-level idempotency
(mirroring the incremental tier, which never memoizes degraded
verdicts).
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
JOURNAL_VERSION = 2
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
    #: Idempotency key (dedupe identity); unique per job when dedupe is off.
    key: str
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
    #: Claim fingerprint for the incremental tier ("" = do not memoize).
    claim_fp: str = ""
    attempts: int = 0
    state: str = PENDING
    result: dict | None = None
    error: str | None = None
    #: Admission order; pending jobs are leased lowest-seq-first.
    seq: int = 0
    subscribers: list[Subscriber] = field(default_factory=list)

    def snapshot(self) -> dict:
        """The public JSON shape (health/stats/deadletter endpoints)."""
        return {
            "id": self.id,
            "key": self.key,
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
        reusable_result: Callable[[dict], bool] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.compact_min_records = compact_min_records
        self.fsync = fsync
        self.reusable_result = reusable_result
        self.directory = Path(directory) if directory is not None else None
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
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
        self.deduped = 0
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
        resumed = 0
        for job in self._jobs.values():
            if job.state == PENDING:
                resumed += 1
        self.resumed = resumed

    def _apply(self, record: dict) -> None:
        op = record.get("op")
        if op == "put":
            data = record.get("job") or {}
            try:
                job = Job(
                    id=str(data["id"]),
                    key=str(data["key"]),
                    group=str(data["group"]),
                    index=int(data["index"]),
                    scope=str(data.get("scope", "")),
                    source=dict(data.get("source") or {}),
                    claim_fp=str(data.get("claim_fp", "")),
                    attempts=int(data.get("attempts", 0)),
                )
            except (KeyError, TypeError, ValueError):
                self.corrupt_records += 1
                return
            self._seq += 1
            job.seq = self._seq
            self._jobs[job.id] = job
            self._by_key[job.key] = job.id
        elif op == "ack":
            job = self._jobs.get(str(record.get("id")))
            if job is not None and job.state != ACKED:
                job.state = ACKED
                job.result = record.get("payload")
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

        Completed (acked) jobs are dropped entirely — job and ack records
        together — so they can never be re-delivered from a journal that
        no longer mentions them. Pending/leased jobs are re-put (leases
        are volatile) and dead jobs keep their tombstones so the
        dead-letter queue survives restarts.
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
                    if job.state == ACKED:
                        continue
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
        # Acked jobs are now unjournaled; forget the completed ones that
        # nothing can reference anymore to keep memory O(live).
        for job_id in [
            job.id for job in self._jobs.values() if job.state == ACKED
        ]:
            job = self._jobs.pop(job_id)
            if self._by_key.get(job.key) == job_id:
                del self._by_key[job.key]
        self._journal_records = records
        self._journal = open(self.journal_path, "a", encoding="utf-8")

    @staticmethod
    def _put_record(job: Job) -> dict:
        return {
            "op": "put",
            "v": JOURNAL_VERSION,
            "job": {
                "id": job.id,
                "key": job.key,
                "group": job.group,
                "index": job.index,
                "scope": job.scope,
                "source": job.source,
                "claim_fp": job.claim_fp,
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

    def submit(
        self,
        key: str,
        group: str,
        index: int,
        scope: str,
        source: dict,
        claim_fp: str = "",
        subscriber: Subscriber | None = None,
    ) -> tuple[Job, dict | None]:
        """Admit one claim job (or dedupe onto an existing one).

        Returns ``(job, payload)``: ``payload`` is non-None when the key
        already completed — the caller emits the result immediately and no
        subscriber is registered. Raises :class:`QueueFullError` when the
        queue is at capacity and the key does not dedupe.
        """
        with self._cond:
            if self._closed or self._draining:
                raise ReproError("queue is draining; resubmit after restart")
            if self._live_locked() >= self.capacity:
                if self._dedupe_target_locked(key) is None:
                    self.rejected += 1
                    raise QueueFullError(
                        self.capacity, self.retry_after_seconds()
                    )
            return self._submit_locked(
                key, group, index, scope, source, claim_fp, subscriber
            )

    def _submit_locked(
        self,
        key: str,
        group: str,
        index: int,
        scope: str,
        source: dict,
        claim_fp: str = "",
        subscriber: Subscriber | None = None,
    ) -> tuple[Job, dict | None]:
        existing = self._dedupe_target_locked(key)
        if existing is not None:
            if existing.state == ACKED:
                self.deduped += 1
                return existing, existing.result
            self.deduped += 1
            if subscriber is not None:
                existing.subscribers.append(subscriber)
            return existing, None
        # DEAD (tombstone keeps the history) or a non-reusable ack
        # (degraded payload): fall through — the resubmission revives the
        # work as a fresh job.
        self._seq += 1
        job = Job(
            id=uuid.uuid4().hex,
            key=key,
            group=group,
            index=index,
            scope=scope,
            source=source,
            claim_fp=claim_fp,
            seq=self._seq,
        )
        if subscriber is not None:
            job.subscribers.append(subscriber)
        self._jobs[job.id] = job
        self._by_key[key] = job.id
        self._append(self._put_record(job))
        self.enqueued += 1
        self._cond.notify()
        return job, None

    def _dedupe_target_locked(self, key: str) -> Job | None:
        """The existing job a submission of ``key`` would attach to.

        None when the key must create a fresh job: unknown, dead, or
        acked with a payload the ``reusable_result`` predicate refuses
        (a degraded verdict must not be pinned by idempotency).
        """
        job_id = self._by_key.get(key)
        if job_id is None:
            return None
        job = self._jobs[job_id]
        if job.state == DEAD:
            return None
        if (
            job.state == ACKED
            and self.reusable_result is not None
            and not self.reusable_result(job.result or {})
        ):
            return None
        return job

    def submit_group(
        self, entries: list[dict]
    ) -> list[tuple[Job, dict | None]]:
        """Admit a whole job group atomically (all-or-nothing).

        ``entries`` are :meth:`submit` keyword dicts sharing one group id.
        Holding the lock across the batch matters for *bit-identity*: a
        worker must never lease a partially-admitted group, or the
        document's fresh claims would verify as two smaller joint batches
        whose pooled priors differ from the synchronous path. The capacity
        check covers the whole batch up front, so either every entry is
        admitted (or deduped) or none is and :class:`QueueFullError`
        carries the retry hint.
        """
        with self._cond:
            if self._closed or self._draining:
                raise ReproError("queue is draining; resubmit after restart")
            fresh = 0
            keys_seen: set[str] = set()
            for entry in entries:
                key = entry["key"]
                dedupes = (
                    self._dedupe_target_locked(key) is not None
                    or key in keys_seen
                )
                if not dedupes:
                    fresh += 1
                    keys_seen.add(key)
            if self._live_locked() + fresh > self.capacity:
                self.rejected += 1
                raise QueueFullError(
                    self.capacity, self.retry_after_seconds()
                )
            return [self._submit_locked(**entry) for entry in entries]

    # ------------------------------------------------------------------
    # Lease / ack / fail

    def lease_group(self, timeout: float | None = None) -> list[Job]:
        """Lease the oldest pending job *and every pending job in its group*.

        Jobs of one group are the fresh claims of one document: verifying
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
        is completed and its subscribers told before the journal write,
        so a write that raises leaves the outcome delivered, only
        unjournaled.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state in (ACKED, DEAD):
                self.duplicate_acks += 1
                return False
            job.state = ACKED
            job.result = payload
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
                if job is not None and job.state not in (ACKED, DEAD)
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
            states = {PENDING: 0, LEASED: 0, ACKED: 0, DEAD: 0}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "capacity": self.capacity,
                "depth": states[PENDING] + states[LEASED],
                "pending": states[PENDING],
                "leased": states[LEASED],
                "completed": states[ACKED],
                "deadletter": states[DEAD],
                "enqueued": self.enqueued,
                "acked": self.acked,
                "duplicate_acks": self.duplicate_acks,
                "deduped": self.deduped,
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
