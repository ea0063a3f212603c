"""The campaign service daemon behind ``repro serve``.

One process, three kinds of thread:

* the **accept loop** (:meth:`ServiceDaemon.serve_forever`) owns the
  unix listening socket and spawns one handler thread per client
  connection;
* **handler threads** parse request frames
  (:mod:`repro.service.protocol`), mutate the
  :class:`~repro.service.board.JobBoard`, and stream journal events
  back to watching clients;
* the **scheduler thread** drains the board's priority queue one
  batch at a time through a single non-strict
  :class:`~repro.experiments.campaign.CampaignEngine` — so every
  fault-tolerance behaviour of batch campaigns (watchdog pool,
  retries, quarantine, cache locking per batch) carries over to the
  service unchanged.

Crash safety has two tiers.  Results persist through the cache tier's
atomic writes, so a SIGKILL'd daemon restarts into a consistent cache —
resubmitted work is served as cache hits and ``*.bad`` quarantine files
survive untouched.  Board state persists through the write-ahead log
(:mod:`repro.service.wal`, stored under ``<cache>/wal/``): on startup
the daemon replays the log, rebuilds every submission's journal,
requeues in-flight jobs, compacts the history into one snapshot
segment, and publishes the recovery stats as ``service.recovery.*``.
SIGTERM drains gracefully — queued batches finish, journals seal, the
WAL compacts and ends in a ``seal`` record, and the socket is unlinked
— while SIGKILL is the recovery path above (the restart guarantees in
docs/SERVICE.md §Durability).  A log whose last record is not a seal
is the crash evidence ``repro doctor`` reports.

Liveness is observable through the ``stats`` and ``jobs`` ops:
``service.scheduler.*`` plus the board's backlog let ``repro doctor``
and ``repro jobs --stats`` tell a *wedged* scheduler (work queued or in
flight, no scheduler event for minutes) from a merely *busy* one.
Backpressure bounds queue depth: past ``--max-pending`` submissions
are rejected with a typed ``ServiceOverloaded`` error instead of
growing memory without bound.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceError,
    ServiceOverloaded,
)
from repro.experiments.campaign import (
    CampaignEngine,
    Job,
    JobEvent,
    ResultCache,
)
from repro.service import wal as wal_mod
from repro.service.board import JobBoard
from repro.service.protocol import (
    PROTOCOL_VERSION,
    check_request,
    encode_frame,
    job_from_wire,
    read_frames,
)
from repro.telemetry.stats import StatGroup
from repro.testing import faults


def _claim_socket(path: str) -> socket.socket:
    """Bind the daemon's unix socket, taking over a stale path.

    A socket file with no listener behind it (daemon SIGKILL'd) is
    unlinked and reclaimed; a *live* listener raises
    :class:`ServiceError` — two daemons must never share a cache
    tier's socket."""
    if os.path.exists(path):
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            probe.connect(path)
        except OSError:
            os.unlink(path)  # dead socket: previous daemon is gone
        else:
            probe.close()
            raise ServiceError(f"a daemon is already serving {path}")
        finally:
            probe.close()
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(16)
    # Closing a socket does not reliably wake a thread blocked in
    # accept(); a short timeout lets the accept loop notice stop().
    listener.settimeout(1.0)
    return listener


class ServiceDaemon:
    """The ``repro serve`` server: socket lifecycle, request dispatch,
    scheduling, and telemetry.

    Parameters mirror the campaign flags: ``jobs`` is the worker-pool
    width, ``timeout``/``retries`` the per-job fault policy, and
    ``cache`` the shared :class:`ResultCache` tier (budget included).

    Locking (docs/SERVICE.md §Locking): ``_stats_lock`` guards the
    request/submission counters and scheduler-liveness fields,
    ``_conns_lock`` the live-connection list, and ``_cleanup_lock``
    the shutdown latch — all three are leaves, never held while taking
    another service lock.  The board and WAL carry their own locks.
    """

    #: Attribute guard map enforced by RL008.
    _GUARDED = {
        "requests": "_stats_lock",
        "submissions": "_stats_lock",
        "accepted": "_stats_lock",
        "deduped_inflight": "_stats_lock",
        "deduped_cached": "_stats_lock",
        "rejected": "_stats_lock",
        "recovery": "_stats_lock",
        "_activity": "_stats_lock",
        "_busy": "_stats_lock",
        "_cleaned": "_cleanup_lock",
        "_conns": "_conns_lock",
    }

    def __init__(self, socket_path: str,
                 cache: Optional[ResultCache] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 max_pending: int = 0) -> None:
        self.socket_path = socket_path
        self.cache = cache
        # Durability rides on the cache tier: without one (--no-cache)
        # there is nowhere to rehydrate results from, so the WAL is
        # off and the board is memory-only.
        self.wal: Optional[wal_mod.WriteAheadLog] = None
        if cache is not None:
            self.wal = wal_mod.WriteAheadLog(
                os.path.join(cache.root, wal_mod.WAL_DIRNAME))
        self.board = JobBoard(wal=self.wal, max_pending=max_pending)
        self.engine = CampaignEngine(jobs=jobs, cache=cache,
                                     progress=self._on_engine_event,
                                     timeout=timeout, retries=retries,
                                     strict=False)
        self.started = time.time()
        self.requests = 0
        self.submissions = 0
        self.accepted = 0
        self.deduped_inflight = 0
        self.deduped_cached = 0
        self.rejected = 0
        #: Stats of the startup WAL recovery (zeros until it runs).
        self.recovery: Dict[str, int] = {
            "records": 0, "submissions": 0, "events": 0,
            "requeued": 0, "sealed": 0, "torn": 0}
        self._activity = time.time()
        self._busy = False
        self._stats_lock = threading.Lock()
        self._stop = threading.Event()
        self._cleanup_lock = threading.Lock()
        self._cleaned = False
        self._listener: Optional[socket.socket] = None
        self._scheduler: Optional[threading.Thread] = None
        self._conns_lock = threading.Lock()
        self._conns: List[socket.socket] = []

    # -- lifecycle -----------------------------------------------------
    def serve_forever(self) -> None:
        """Claim the socket, recover board state from the WAL, and
        serve until ``shutdown`` / SIGTERM (or :meth:`stop`).
        Blocks; run it on the main thread."""
        listener = self._listener = _claim_socket(self.socket_path)
        self._recover()
        self._install_signal_handlers()
        # daemon-thread: joined in stop(); daemonized so a wedged
        # engine batch cannot keep the interpreter alive past exit.
        self._scheduler = threading.Thread(target=self._run_scheduler,
                                           name="repro-scheduler",
                                           daemon=True)
        self._scheduler.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue  # poll the stop flag
                except OSError:
                    break  # listener closed by stop()
                with self._conns_lock:
                    self._conns.append(conn)
                # daemon-thread: handler threads block on client
                # sockets; stop() closes every tracked connection
                # (which unblocks them), and daemonization covers a
                # client that never hangs up.
                threading.Thread(target=self._serve_connection,
                                 args=(conn,), daemon=True).start()
        finally:
            self.stop()

    def stop(self) -> None:
        """Drain and shut down: close the board (the scheduler
        finishes what is queued, then exits), the listener, and every
        client connection; remove the socket file."""
        self._stop.set()
        # The shutdown op sets the flag before the accept loop's own
        # stop() call, so idempotence needs a separate cleanup latch.
        with self._cleanup_lock:
            if self._cleaned:
                return
            self._cleaned = True
        self.board.close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if self._scheduler is not None:
            self._scheduler.join(timeout=60)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - client already gone
                pass
        if self.wal is not None:
            # Scheduler is quiet: compact so the next start replays
            # one clean snapshot instead of the full history, then
            # seal it (the seal must follow the compaction — compacting
            # replaces the history, so a seal written first would be
            # erased with it).
            try:
                self.wal.compact(self.board.snapshot_records())
            except OSError:
                pass  # a failed compaction leaves the log authoritative
            try:
                self.wal.seal()
            except OSError:
                pass  # unsealed: the next start recovers it as a crash
            self.wal.close()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # -- durability ----------------------------------------------------
    def _recover(self) -> None:
        """Rebuild the board from the WAL (no-op without one): replay
        trusted records, requeue in-flight work, compact the history
        into one snapshot segment, and record the stats for the
        ``stats`` op."""
        if self.wal is None:
            return
        records, torn = self.wal.replay()
        stats = dict(self.board.restore(records, self._load_result))
        stats["torn"] = torn
        with self._stats_lock:
            self.recovery = stats
        if records or torn:
            # One clean snapshot segment also drops any torn tail so
            # later appends never land after a corrupt record.
            self.wal.compact(self.board.snapshot_records())

    def _load_result(self, key: str) -> Optional[Dict[str, Any]]:
        """A cached result's wire payload by job key, bypassing the
        cache's hit/miss accounting (recovery is not traffic)."""
        if self.cache is None:
            return None
        try:
            with open(self.cache.path(key), encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _install_signal_handlers(self) -> None:
        """Arm graceful drain on SIGTERM (main thread only — the
        in-process daemons the tests spin up skip this)."""
        if threading.current_thread() is not threading.main_thread():
            return
        def _drain(signum: int, frame: Any) -> None:
            self._stop.set()
            self.board.close()
            if self._listener is not None:
                self._listener.close()  # unblocks the accept loop
        signal.signal(signal.SIGTERM, _drain)

    def _touch_activity(self) -> None:
        with self._stats_lock:
            self._activity = time.time()

    # -- scheduler -----------------------------------------------------
    def _run_scheduler(self) -> None:
        """Drain the board's queue batch-by-batch through the engine
        until the board closes."""
        while True:
            batch = self.board.next_batch()
            if batch is None:
                return
            with self._stats_lock:
                self._busy = True
                self._activity = time.time()
            try:
                self.engine.run_campaign(batch)
            # The scheduler must outlive any single campaign: an
            # engine bug would otherwise wedge every queued client.
            # Failures surface per-job via the board's fail events.
            # reprolint: disable=RL004
            except Exception as exc:  # noqa: BLE001 - thread boundary
                for job in batch:
                    self.board.on_event(JobEvent(
                        job, "fail", 0, len(batch), None,
                        type(exc).__name__))
            finally:
                with self._stats_lock:
                    self._busy = False
                    self._activity = time.time()

    def _on_engine_event(self, event: JobEvent) -> None:
        """Engine progress hook: attach the result (the ledger is
        populated before the event fires) and forward to the board."""
        self._touch_activity()
        result: Optional[Dict[str, Any]] = None
        if event.status in ("hit", "done") \
                and self.engine.ledger is not None:
            sim = self.engine.ledger.results.get(event.job)
            if sim is not None:
                result = sim.to_dict()
        self.board.on_event(event, result)

    # -- connection handling -------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        """Handle one client: a sequence of request frames, each
        answered by one or more event frames."""
        stream = conn.makefile("rb")
        try:
            frames = read_frames(stream)
            while True:
                try:
                    frame = next(frames)
                except StopIteration:
                    break
                except ProtocolError as exc:
                    # Undecodable line: answer, then drop the client —
                    # framing is lost, resync is impossible.
                    self._send(conn, {"event": "error",
                                      "kind": "ProtocolError",
                                      "error": str(exc)})
                    break
                self._bump("requests")
                try:
                    op = check_request(frame)
                    if self._dispatch(op, frame, conn):
                        break  # shutdown: stop reading this client
                except ProtocolError as exc:
                    self._send(conn, {"event": "error",
                                      "kind": "ProtocolError",
                                      "error": str(exc)})
                except ReproError as exc:
                    self._send(conn, {"event": "error",
                                      "kind": type(exc).__name__,
                                      "error": str(exc)})
        except (OSError, ValueError, ReproError):
            pass  # client hung up (or sent junk) mid-frame; nothing
            # left to answer — per-request errors were handled above
        finally:
            stream.close()
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _dispatch(self, op: str, frame: Dict[str, Any],
                  conn: socket.socket) -> bool:
        """Execute one request; returns True when the daemon should
        shut down."""
        if op == "ping":
            self._send(conn, {"event": "pong", "v": PROTOCOL_VERSION,
                              "pid": os.getpid(),
                              "uptime": time.time() - self.started})
        elif op == "submit":
            self._handle_submit(frame, conn)
        elif op == "watch":
            sid = frame.get("id")
            if not isinstance(sid, str) \
                    or not self.board.has_submission(sid):
                raise ProtocolError(f"unknown submission id {sid!r}")
            cursor = frame.get("cursor", 0)
            if not isinstance(cursor, int) or cursor < 0:
                raise ProtocolError("'cursor' must be an int >= 0")
            self._stream_events(conn, sid, cursor)
        elif op == "jobs":
            self._send(conn, {"event": "jobs",
                              **self.board.summary()})
        elif op == "stats":
            self._send(conn, {"event": "stats",
                              "tree": self.stats_tree().to_dict()})
        else:  # shutdown
            self._send(conn, {"event": "bye"})
            self._stop.set()
            self.board.close()
            if self._listener is not None:
                self._listener.close()  # unblocks the accept loop
            return True
        return False

    def _handle_submit(self, frame: Dict[str, Any],
                       conn: socket.socket) -> None:
        """Validate, enqueue, acknowledge, and (optionally) stream."""
        jobs = self._parse_jobs(frame)
        priority = frame.get("priority", 0)
        if not isinstance(priority, int):
            raise ProtocolError("'priority' must be an int")
        if self.board.closed:
            raise ServiceError("daemon is shutting down")
        self._bump("submissions")
        try:
            submission = self.board.submit(jobs, priority)
        except ServiceOverloaded:
            self._bump("rejected")
            raise
        with self._stats_lock:
            self.accepted += submission.counts["new"]
            self.deduped_inflight += \
                submission.counts["deduped_inflight"]
            self.deduped_cached += submission.counts["deduped_cached"]
        self._send(conn, {"event": "accepted", "id": submission.sid,
                          "total": submission.total,
                          **submission.counts})
        if frame.get("watch", True):
            self._stream_events(conn, submission.sid, 0)

    def _parse_jobs(self, frame: Dict[str, Any]) -> List[Job]:
        """Decode and validate the submission's job list against the
        live registries' names — the daemon rejects what it cannot
        run."""
        from repro.experiments.runner import core_names
        from repro.predictors import predictor_names
        from repro.trace.workloads import CATALOGUE

        wire_jobs = frame.get("jobs")
        if not isinstance(wire_jobs, list) or not wire_jobs:
            raise ProtocolError("'jobs' must be a non-empty list")
        jobs = [job_from_wire(wire) for wire in wire_jobs]
        cores = set(core_names())
        predictors = set(predictor_names())
        for job in jobs:
            if job.workload not in CATALOGUE:
                raise ProtocolError(f"unknown workload {job.workload!r}")
            if job.core not in cores:
                raise ProtocolError(f"unknown core {job.core!r}")
            if isinstance(job.spec, str) and job.spec not in predictors:
                raise ProtocolError(f"unknown predictor {job.spec!r}")
            if job.trace_file is not None \
                    and not os.path.exists(job.trace_file):
                raise ProtocolError(
                    f"trace file {job.trace_file!r} not found on the "
                    "daemon host")
        return jobs

    def _stream_events(self, conn: socket.socket, sid: str,
                       cursor: int) -> None:
        """Replay + follow a submission's journal to one client."""
        while not self._stop.is_set():
            frames, cursor, finished = self.board.events_since(
                sid, cursor)
            for event_frame in frames:
                self._send(conn, event_frame)
            if finished:
                return

    def _send(self, conn: socket.socket,
              frame: Dict[str, Any]) -> None:
        """Write one frame; a vanished client ends its stream only.

        The ``frame-drop`` fault point fires here: the frame is
        truncated mid-write and the connection severed, modelling a
        dropped stream the client must recover from by reconnecting
        and resuming from its journal cursor."""
        encoded = encode_frame(frame)
        if os.environ.get(faults.FAULTS_ENV):
            label = " ".join(
                str(frame[name]) for name in ("event", "status",
                                              "label", "id")
                if frame.get(name))
            if faults.drop_frame(label):
                try:
                    conn.sendall(encoded[:max(1, len(encoded) // 2)])
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
                raise ReproError(
                    f"injected frame drop on {label!r}")
        try:
            conn.sendall(encoded)
        except OSError as exc:
            raise ReproError("client connection lost") from exc

    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    # -- telemetry -----------------------------------------------------
    def stats_tree(self) -> StatGroup:
        """The daemon's telemetry tree, shaped by
        :data:`repro.telemetry.schema.SERVICE_SCHEMA` (the ``stats``
        op and ``repro jobs --stats`` render it)."""
        board = self.board.summary()
        wal_counts = self.wal.counters() if self.wal else \
            {"appends": 0, "bytes": 0, "compactions": 0}
        # One consistent snapshot: handler threads and the scheduler
        # bump these concurrently, so every counter read happens under
        # the same lock the writers take (RL008).
        with self._stats_lock:
            requests = self.requests
            submissions = self.submissions
            accepted = self.accepted
            deduped_inflight = self.deduped_inflight
            deduped_cached = self.deduped_cached
            rejected = self.rejected
            recovered = dict(self.recovery)
            age = time.time() - self._activity
            busy = self._busy
        root = StatGroup("daemon")
        service = root.group("service", "campaign service daemon")
        service.counter("requests", "request frames handled",
                        requests)
        service.counter("submissions", "submit frames accepted",
                        submissions)
        jobs = service.group("jobs", "job-record accounting")
        jobs.counter("accepted", "distinct new jobs enqueued",
                     accepted)
        jobs.counter("deduped-inflight",
                     "submissions joined to in-flight records",
                     deduped_inflight)
        jobs.counter("deduped-cached",
                     "submissions answered from completed records",
                     deduped_cached)
        jobs.counter("completed", "records in the done state",
                     board["records"]["done"])
        jobs.counter("failed", "records quarantined as failed",
                     board["records"]["failed"])
        jobs.counter("rejected",
                     "submissions rejected by backpressure",
                     rejected)
        wal = service.group("wal", "write-ahead log (durability)")
        wal.counter("appends", "records durably appended",
                    wal_counts["appends"])
        wal.counter("bytes", "bytes appended (daemon lifetime)",
                    wal_counts["bytes"])
        wal.counter("segments", "segment files on disk",
                    self.wal.segments() if self.wal else 0)
        wal.counter("compactions", "snapshot compactions performed",
                    wal_counts["compactions"])
        recovery = service.group("recovery",
                                 "last startup WAL recovery")
        recovery.counter("records", "trusted WAL records replayed",
                         recovered.get("records", 0))
        recovery.counter("submissions", "submissions rebuilt",
                         recovered.get("submissions", 0))
        recovery.counter("requeued", "in-flight jobs requeued",
                         recovered.get("requeued", 0))
        recovery.counter("torn", "torn records dropped at replay",
                         recovered.get("torn", 0))
        recovery.counter("sealed",
                         "1 when the replayed log ended in a seal "
                         "(clean stop), 0 after a crash",
                         recovered.get("sealed", 0))
        scheduler = service.group("scheduler", "scheduler liveness")
        scheduler.counter("busy", "1 while a batch is in the engine",
                          int(busy))
        scheduler.counter(
            "activity-age",
            "seconds since the last scheduler/engine event "
            "(over 300 with work queued or in flight = wedged)",
            round(age, 3))
        tier = root.group("cache", "shared result-cache tier")
        cache = self.cache
        tier.counter("hits", "result-cache hits (daemon lifetime)",
                     cache.hits if cache else 0)
        tier.counter("misses", "result-cache misses",
                     cache.misses if cache else 0)
        tier.counter("stores", "results persisted",
                     cache.stores if cache else 0)
        tier.counter("evictions", "entries evicted by the budget",
                     cache.evicted if cache else 0)
        tier.counter("quarantined", "corrupt entries quarantined",
                     cache.quarantined if cache else 0)
        tier.counter("entries", "current entries on disk",
                     len(cache.entries()) if cache else 0)
        tier.counter("size-bytes", "current entry bytes on disk",
                     cache.size_bytes() if cache else 0)
        return root


__all__ = ["ServiceDaemon"]
