"""Job board: submissions, dedup, event journals — now WAL-durable.

The board is the daemon's single source of truth, shared by every
connection thread and the scheduler under one lock:

* **Records** — one :class:`JobRecord` per distinct job (keyed by the
  campaign cache key, :func:`~repro.experiments.campaign.job_key`),
  whatever number of submissions reference it.  A job simulates at
  most once per daemon lifetime; later submissions *subscribe* to the
  existing record instead of enqueueing a duplicate — the in-flight
  half of the dedup contract (the on-disk half is the
  :class:`~repro.experiments.campaign.ResultCache`, consulted by the
  engine when the job actually runs).
* **Submissions** — one :class:`Submission` per ``submit`` frame, with
  an append-only event journal.  Watchers replay the journal from any
  cursor and then follow live under the board condition variable, so
  a client that connects late (or reconnects) sees exactly the same
  event sequence as one that watched from the start — no races, no
  gaps.
* **Queue** — a priority heap of batches (higher ``priority`` first,
  FIFO within a priority).  Only *new* records enter the queue; the
  scheduler drains it one batch at a time through the campaign
  engine.

Durability (PR 9, docs/SERVICE.md §Durability): when constructed with
a :class:`~repro.service.wal.WriteAheadLog`, every submission and
engine event is appended to the log *before* the in-memory mutation
(log-then-apply), and :meth:`restore` rebuilds the whole board —
records, journals, queue order, priorities — by replaying the log
through the very same apply paths.  Result payloads are never logged;
:meth:`restore` rehydrates them from the result cache by job key, and
any terminal record whose cached result has vanished is downgraded to
pending and requeued, so the dedup contract survives eviction too.
A completed record holds its result as wire text, encoded once when
the record turns ``hit``/``done`` (live or on restore); every journal
frame that carries the result shares that one string.

Backpressure: ``max_pending`` bounds the pending+running record count;
a submission that would exceed it is rejected atomically (no partial
state, nothing logged) with :class:`~repro.errors.ServiceOverloaded`.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.errors import ConfigError, ServiceOverloaded
from repro.experiments.campaign import Job, JobEvent, RawJSON, job_key
from repro.service.protocol import encode_result, job_from_wire, job_to_wire
from repro.service.wal import WriteAheadLog

#: Job-record lifecycle states.
STATES = ("pending", "running", "done", "failed")

#: Journal statuses that end a job's participation in a submission.
_TERMINAL = ("hit", "done", "fail")


@dataclass
class JobRecord:
    """One distinct job's lifetime on the board."""

    job: Job
    key: str
    state: str = "pending"
    #: Whether the result came from the cache tier (vs a simulation).
    from_cache: bool = False
    #: ``SimResult.to_dict()`` as wire text, encoded once on
    #: completion and spliced into every frame that carries it.
    result: Optional[RawJSON] = None
    error: Optional[str] = None
    #: Submission ids following this record.
    subscribers: Set[str] = field(default_factory=set)


@dataclass
class Submission:
    """One ``submit`` frame's accounting and event journal."""

    sid: str
    keys: List[str]
    priority: int
    counts: Dict[str, int]
    events: List[Dict[str, Any]] = field(default_factory=list)
    done: int = 0
    hits: int = 0
    simulated: int = 0
    failed: int = 0
    complete: bool = False

    @property
    def total(self) -> int:
        """Distinct jobs in this submission."""
        return len(self.keys)


def _strip_result(frame: Dict[str, Any]) -> Dict[str, Any]:
    """A journal frame without its result payload (snapshot form)."""
    if "result" not in frame:
        return frame
    slim = dict(frame)
    del slim["result"]
    return slim


def _logged_job(wire: Dict[str, Any]) -> Job:
    """A job from a WAL record.  Logs written before the per-job
    ``backend`` field was removed still carry it; it never joined the
    job key, so dropping it here keeps those logs replayable.  Client
    frames go through :func:`job_from_wire` directly and keep
    rejecting it."""
    if isinstance(wire, dict):
        wire = {name: value for name, value in wire.items()
                if name != "backend"}
    return job_from_wire(wire)


def _sid_seq(sid: str) -> int:
    """The sequence number embedded in a submission id (``S0012`` →
    12); 0 for foreign ids."""
    try:
        return int(sid.lstrip("S"))
    except ValueError:
        return 0


class JobBoard:
    """Thread-safe submission/record registry with event streaming.

    ``wal`` makes the board durable (log-then-apply + :meth:`restore`);
    ``max_pending`` bounds queue depth (0 = unbounded; negative is a
    :class:`~repro.errors.ConfigError`).

    Every mutable field lives under the single board lock (``_cond``
    wraps the same lock, so holding either is holding both); ``wal``
    and ``max_pending`` are set once in the constructor and read-only
    afterwards.  RL008 enforces the guard map below."""

    #: Attribute guard map (docs/LINTING.md §RL008).
    _GUARDED = {
        "records": "_lock",
        "submissions": "_lock",
        "_queue": "_lock",
        "_seq": "_lock",
        "_closed": "_lock",
        "_replaying": "_lock",
    }

    def __init__(self, wal: Optional[WriteAheadLog] = None,
                 max_pending: int = 0) -> None:
        if max_pending < 0:
            raise ConfigError(f"max_pending must be >= 0 (0 = "
                              f"unbounded), got {max_pending}")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.records: Dict[str, JobRecord] = {}
        self.submissions: Dict[str, Submission] = {}
        self._queue: List[Tuple[int, int, str, List[str]]] = []
        self._seq = 0
        self._closed = False
        self.wal = wal
        self.max_pending = max_pending
        self._replaying = False

    def _log(self, record: Dict[str, Any]) -> None:
        """Durably log one record before applying it (lock held); a
        no-op without a WAL or during :meth:`restore` replay."""
        if self.wal is not None and not self._replaying:
            self.wal.append(record)

    # -- submission ----------------------------------------------------
    def submit(self, jobs: Sequence[Job],
               priority: int = 0) -> Submission:
        """Register a submission; returns its :class:`Submission`.

        Incoming duplicates collapse first (a sweep that lists a job
        twice costs one slot); each distinct job then either creates a
        fresh pending record (queued for the scheduler), subscribes to
        an in-flight record (``deduped_inflight``), or is answered
        immediately from a completed record's held result
        (``deduped_cached`` — a memory-tier cache hit, no queueing at
        all).  Failed records are retried: a resubmission replaces
        them with a fresh pending record.

        Raises :class:`~repro.errors.ServiceOverloaded` — atomically,
        before any state change or WAL append — when the new records
        would push the pending+running count past ``max_pending``."""
        with self._cond:
            ordered: List[Tuple[str, Job]] = []
            seen: Set[str] = set()
            for job in jobs:
                key = job_key(job)
                if key not in seen:
                    seen.add(key)
                    ordered.append((key, job))
            if self.max_pending > 0:
                fresh = sum(
                    1 for key, _ in ordered
                    if key not in self.records
                    or self.records[key].state == "failed")
                inflight = sum(
                    1 for record in self.records.values()
                    if record.state in ("pending", "running"))
                if inflight + fresh > self.max_pending:
                    raise ServiceOverloaded(
                        f"job board at capacity: {inflight} in flight "
                        f"+ {fresh} new > max_pending="
                        f"{self.max_pending}; back off and resubmit")
            self._seq += 1
            sid = f"S{self._seq:04d}"
            self._log({"t": "submit", "sid": sid, "priority": priority,
                       "jobs": [job_to_wire(job) for _, job in ordered]})
            submission = self._apply_submit(ordered, priority, sid,
                                            self._seq)
            self._cond.notify_all()
            return submission

    def _apply_submit(self, ordered: Sequence[Tuple[str, Job]],
                      priority: int, sid: str,
                      seq: int) -> Submission:
        """Dedup/subscribe/queue one submission (lock held) — the
        single apply path shared by live ``submit`` and WAL replay."""
        counts = {"new": 0, "deduped_inflight": 0,
                  "deduped_cached": 0}
        run_keys: List[str] = []
        served: List[JobRecord] = []
        for key, job in ordered:
            record = self.records.get(key)
            if record is None or record.state == "failed":
                record = JobRecord(job=job, key=key)
                self.records[key] = record
                counts["new"] += 1
                record.subscribers.add(sid)
                run_keys.append(key)
            elif record.state in ("pending", "running"):
                counts["deduped_inflight"] += 1
                record.subscribers.add(sid)
            else:  # done: answer from the memory tier, no queueing
                counts["deduped_cached"] += 1
                served.append(record)
        submission = Submission(sid=sid,
                                keys=[key for key, _ in ordered],
                                priority=priority, counts=counts)
        self.submissions[sid] = submission
        for record in served:
            self._journal(submission, record, "hit", None, None)
        if run_keys:
            heapq.heappush(self._queue,
                           (-priority, seq, sid, run_keys))
        self._finish_if_drained(submission)
        return submission

    # -- scheduler side ------------------------------------------------
    def next_batch(self) -> Optional[List[Job]]:
        """Block until a batch is queued; ``None`` once the board is
        closed *and* the queue has drained (scheduler exit signal)."""
        with self._cond:
            while True:
                while self._queue:
                    _, _, _, keys = heapq.heappop(self._queue)
                    batch = [self.records[key].job for key in keys
                             if key in self.records
                             and self.records[key].state == "pending"]
                    if batch:
                        return batch
                if self._closed:
                    return None
                self._cond.wait(timeout=0.5)

    def on_event(self, event: JobEvent,
                 result: Optional[Dict[str, Any]] = None) -> None:
        """Apply one engine :class:`JobEvent` to the board: log it,
        advance the record's state, and fan the event out to every
        subscribed submission's journal.  ``result`` is the job's
        ``SimResult.to_dict()`` payload on ``hit``/``done``."""
        key = job_key(event.job)
        encoded = None if result is None else encode_result(result)
        with self._cond:
            record = self.records.get(key)
            if record is None:
                return
            logged: Dict[str, Any] = {"t": "event", "key": key,
                                      "status": event.status,
                                      "label": record.job.label}
            if event.elapsed is not None:
                logged["elapsed"] = event.elapsed
            if event.error is not None:
                logged["error"] = event.error
            self._log(logged)
            self._apply_event(record, event.status, event.elapsed,
                              event.error, encoded)
            self._cond.notify_all()

    def _apply_event(self, record: JobRecord, status: str,
                     elapsed: Optional[float], error: Optional[str],
                     result: Optional[RawJSON]) -> None:
        """State transition + journal fan-out (lock held) — the single
        apply path shared by live ``on_event`` and WAL replay."""
        if status == "start":
            record.state = "running"
        elif status == "hit":
            record.state = "done"
            record.from_cache = True
            record.result = result
        elif status == "done":
            record.state = "done"
            record.result = result
        elif status == "fail":
            record.state = "failed"
            record.error = error
        for sid in sorted(record.subscribers):
            submission = self.submissions.get(sid)
            if submission is None or submission.complete:
                continue
            self._journal(submission, record, status, elapsed, error)
            self._finish_if_drained(submission)

    def _journal(self, submission: Submission, record: JobRecord,
                 status: str, elapsed: Optional[float],
                 error: Optional[str]) -> None:
        """Append one event to a submission's journal (lock held)."""
        frame: Dict[str, Any] = {
            "event": "job", "id": submission.sid, "status": status,
            "label": record.job.label, "key": record.key,
        }
        if elapsed is not None:
            frame["elapsed"] = elapsed
        if error is not None:
            frame["error"] = error
        if status in ("hit", "done"):
            frame["result"] = record.result
        if status in _TERMINAL:
            submission.done += 1
            if status == "hit":
                submission.hits += 1
            elif status == "done":
                submission.simulated += 1
            else:
                submission.failed += 1
            frame["index"] = submission.done
            frame["total"] = submission.total
        submission.events.append(frame)

    def _finish_if_drained(self, submission: Submission) -> None:
        """Seal a submission whose every job reached a terminal state
        (lock held): append the ``complete`` journal frame."""
        if submission.complete or submission.done < submission.total:
            return
        submission.complete = True
        submission.events.append({
            "event": "complete", "id": submission.sid,
            "total": submission.total, "hits": submission.hits,
            "simulated": submission.simulated,
            "failed": submission.failed,
        })

    # -- durability: snapshot + restore --------------------------------
    def snapshot_records(self) -> List[Dict[str, Any]]:
        """The board's full live state as WAL snapshot records, in
        replay order (seq, records, submissions, queue).  Journal
        frames are stored without result payloads — :meth:`restore`
        rehydrates them from the result cache."""
        with self._lock:
            out: List[Dict[str, Any]] = [
                {"t": "seq", "value": self._seq}]
            for key in sorted(self.records):
                record = self.records[key]
                out.append({"t": "rec", "key": key,
                            "job": job_to_wire(record.job),
                            "state": record.state,
                            "from_cache": record.from_cache,
                            "error": record.error,
                            "subscribers": sorted(record.subscribers)})
            for sid in sorted(self.submissions):
                sub = self.submissions[sid]
                out.append({"t": "sub", "sid": sid,
                            "priority": sub.priority,
                            "keys": list(sub.keys),
                            "counts": dict(sub.counts),
                            "done": sub.done, "hits": sub.hits,
                            "simulated": sub.simulated,
                            "failed": sub.failed,
                            "complete": sub.complete,
                            "frames": [_strip_result(frame)
                                       for frame in sub.events]})
            if self._queue:
                out.append({"t": "queue",
                            "entries": [[pri, seq, sid, list(keys)]
                                        for pri, seq, sid, keys
                                        in sorted(self._queue)]})
            return out

    def restore(self, records: Sequence[Dict[str, Any]],
                load_result: Callable[[str], Optional[Dict[str, Any]]],
                ) -> Dict[str, int]:
        """Rebuild the board from replayed WAL records.

        ``load_result`` maps a job key to its cached
        ``SimResult.to_dict()`` payload (or ``None``); terminal
        records whose result has vanished from the cache are
        downgraded to pending.  After replay, every pending/running
        record that is no longer queued (its batch was popped before
        the crash, or its tail was torn off the log) is reset to
        pending and requeued in one deterministic recovery batch.
        Returns recovery stats (records/submissions/events applied,
        jobs requeued, and ``sealed``: 1 only when the last record is
        the clean-shutdown seal)."""
        stats = {"records": 0, "submissions": 0, "events": 0,
                 "requeued": 0, "sealed": 0}
        with self._cond:
            self._replaying = True
            try:
                for record in records:
                    kind = record.get("t")
                    stats["records"] += 1
                    stats["sealed"] = int(kind == "seal")
                    if kind == "submit":
                        if self._restore_submit(record):
                            stats["submissions"] += 1
                    elif kind == "event":
                        if self._restore_event(record, load_result):
                            stats["events"] += 1
                    elif kind == "seq":
                        self._seq = max(self._seq,
                                        int(record.get("value", 0)))
                    elif kind == "rec":
                        self._restore_record(record, load_result)
                    elif kind == "sub":
                        if self._restore_submission(record):
                            stats["submissions"] += 1
                    elif kind == "queue":
                        for pri, seq, sid, keys in record.get(
                                "entries", []):
                            heapq.heappush(
                                self._queue,
                                (int(pri), int(seq), str(sid),
                                 [str(key) for key in keys]))
                    # unknown record types: skip (forward compat)
            finally:
                self._replaying = False
            stats["requeued"] = self._requeue_incomplete()
            self._cond.notify_all()
        return stats

    def _restore_submit(self, record: Dict[str, Any]) -> bool:
        """Replay one incremental ``submit`` record (lock held)."""
        sid = str(record.get("sid", ""))
        if not sid or sid in self.submissions:
            return False
        jobs = [_logged_job(wire) for wire in record.get("jobs", [])]
        ordered: List[Tuple[str, Job]] = []
        seen: Set[str] = set()
        for job in jobs:
            key = job_key(job)
            if key not in seen:
                seen.add(key)
                ordered.append((key, job))
        seq = _sid_seq(sid)
        self._seq = max(self._seq, seq)
        self._apply_submit(ordered, int(record.get("priority", 0)),
                           sid, seq)
        return True

    def _restore_event(self, record: Dict[str, Any],
                       load_result: Callable[
                           [str], Optional[Dict[str, Any]]]) -> bool:
        """Replay one incremental ``event`` record (lock held)."""
        key = record.get("key")
        job_record = self.records.get(key) if key else None
        if job_record is None:
            return False
        status = str(record.get("status", ""))
        result = None
        if status in ("hit", "done"):
            payload = load_result(key)
            if payload is None:
                # The cached result this terminal event relied on is
                # gone (evicted/corrupt): pretend the job never
                # finished — it stays pending and gets requeued, and
                # its subscribers' journals stay open until the rerun.
                job_record.state = "pending"
                return False
            result = encode_result(payload)
        self._apply_event(job_record, status, record.get("elapsed"),
                          record.get("error"), result)
        return True

    def _restore_record(self, record: Dict[str, Any],
                        load_result: Callable[
                            [str], Optional[Dict[str, Any]]]) -> None:
        """Replay one snapshot ``rec`` record (lock held)."""
        key = record.get("key")
        if not key or key in self.records:
            return
        job_record = JobRecord(
            job=_logged_job(record.get("job", {})), key=key,
            state=str(record.get("state", "pending")),
            from_cache=bool(record.get("from_cache", False)),
            error=record.get("error"),
            subscribers=set(record.get("subscribers", [])))
        if job_record.state == "done":
            payload = load_result(key)
            if payload is None:
                job_record.state = "pending"
                job_record.from_cache = False
            else:
                job_record.result = encode_result(payload)
        self.records[key] = job_record

    def _restore_submission(self, record: Dict[str, Any]) -> bool:
        """Replay one snapshot ``sub`` record (lock held)."""
        sid = str(record.get("sid", ""))
        if not sid or sid in self.submissions:
            return False
        submission = Submission(
            sid=sid, keys=[str(key) for key in record.get("keys", [])],
            priority=int(record.get("priority", 0)),
            counts=dict(record.get("counts", {})),
            done=int(record.get("done", 0)),
            hits=int(record.get("hits", 0)),
            simulated=int(record.get("simulated", 0)),
            failed=int(record.get("failed", 0)),
            complete=bool(record.get("complete", False)))
        for frame in record.get("frames", []):
            frame = dict(frame)
            if frame.get("event") == "job" \
                    and frame.get("status") in ("hit", "done"):
                job_record = self.records.get(frame.get("key"))
                if job_record is not None \
                        and job_record.result is not None:
                    frame["result"] = job_record.result
            submission.events.append(frame)
        self.submissions[sid] = submission
        self._seq = max(self._seq, _sid_seq(sid))
        return True

    def _requeue_incomplete(self) -> int:
        """Reset running records to pending and requeue every
        unqueued pending record in one deterministic batch (lock
        held); returns the requeued count."""
        queued = {key for _, _, _, keys in self._queue for key in keys}
        missing: List[str] = []
        for key in sorted(self.records):
            record = self.records[key]
            if record.state == "running":
                record.state = "pending"
            if record.state == "pending" and key not in queued:
                missing.append(key)
        if missing:
            priority = 0
            for key in missing:
                for sid in self.records[key].subscribers:
                    submission = self.submissions.get(sid)
                    if submission is not None:
                        priority = max(priority, submission.priority)
            self._seq += 1
            heapq.heappush(self._queue,
                           (-priority, self._seq, "recovery", missing))
        return len(missing)

    # -- watcher side --------------------------------------------------
    def events_since(self, sid: str, cursor: int,
                     timeout: float = 0.5
                     ) -> Tuple[List[Dict[str, Any]], int, bool]:
        """Journal frames past ``cursor`` for submission ``sid``.

        Blocks up to ``timeout`` seconds for news; returns
        ``(frames, new_cursor, finished)`` where ``finished`` means
        the journal is sealed (or the board closed) and the watcher
        should stop after draining.  Raises :class:`KeyError` for an
        unknown submission id."""
        with self._cond:
            submission = self.submissions[sid]
            if cursor >= len(submission.events) \
                    and not submission.complete and not self._closed:
                self._cond.wait(timeout=timeout)
            frames = submission.events[cursor:]
            new_cursor = cursor + len(frames)
            finished = (submission.complete
                        and new_cursor >= len(submission.events)) \
                or self._closed
            return frames, new_cursor, finished

    # -- introspection -------------------------------------------------
    def has_submission(self, sid: str) -> bool:
        """Whether ``sid`` names a known submission — the locked probe
        the daemon's ``watch`` dispatch uses (reading
        ``board.submissions`` directly from a handler thread would be
        an unguarded cross-thread read)."""
        with self._lock:
            return sid in self.submissions

    def summary(self) -> Dict[str, Any]:
        """The ``jobs`` op's answer: queue depth, per-state record
        counts, and one row per submission."""
        with self._lock:
            states = {state: 0 for state in STATES}
            for record in self.records.values():
                states[record.state] += 1
            rows = [{"id": sub.sid, "total": sub.total,
                     "done": sub.done, "failed": sub.failed,
                     "priority": sub.priority,
                     "complete": sub.complete}
                    for sub in self.submissions.values()]
            return {"queued_batches": len(self._queue),
                    "records": states, "submissions": rows}

    def close(self) -> None:
        """Stop accepting work and wake every waiter; the scheduler
        drains what is already queued, watchers drain and detach."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` was called."""
        with self._lock:
            return self._closed


__all__ = ["JobBoard", "JobRecord", "STATES", "Submission"]
