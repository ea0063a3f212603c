"""Write-ahead log for the campaign service job board.

The daemon's :class:`~repro.service.board.JobBoard` is an in-memory
structure; this module makes it durable (docs/SERVICE.md §Durability).
Every state change — a submission accepted, a job started, completed,
or failed — is appended to an append-only, fsync'd log *before* the
in-memory mutation, so a daemon killed at any instant can rebuild the
board on restart: queue order, in-flight records, and the
event journals watchers replay from their cursors.

Format
------
One record per line::

    crc32(payload):08x SPACE payload(JSON, compact) NEWLINE

The CRC makes torn writes (a crash mid-append) self-describing: replay
stops at the first record that fails the checksum, misses its newline,
or does not parse — everything before it is trusted, everything after
it is discarded and counted as torn.  That is safe because the board's
recovery requeues any job without a journaled terminal event, and the
on-disk :class:`~repro.experiments.campaign.ResultCache` dedups the
re-run, so a lost suffix costs wall-clock, never correctness.

Record types (the ``"t"`` field):

``submit``  incremental: one accepted submission (sid, wire jobs)
``event``   incremental: one engine event applied to a record (key,
            status, elapsed, error) — result payloads are *not* logged;
            recovery rehydrates them from the result cache by key
``seal``    marker appended on clean shutdown; a log whose last
            trusted record is a seal was stopped cleanly
``seq``, ``rec``, ``sub``, ``queue``
            snapshot records written by :meth:`WriteAheadLog.compact`:
            a direct dump of live board state that replaces the full
            incremental history (old segments are deleted)

Segments are ``segment-NNNNNN.wal`` under ``<cache>/wal/``; compaction
writes the snapshot to a ``.tmp``, fsyncs, renames it into place as the
next segment, then unlinks the older ones — crash-safe at every step
(a leftover ``.tmp`` is garbage that ``repro doctor --fix`` sweeps).

The directory holds nothing but segments, and the log itself is the
crash evidence: a daemon that stopped cleanly leaves a ``seal`` as the
last trusted record, so a log ending in anything else was cut short by
a crash (``repro doctor`` reports it; the next start recovers it).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.testing import faults

#: Subdirectory of the cache dir holding the log segments.
WAL_DIRNAME = "wal"

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".wal"


# ----------------------------------------------------------------------
# Record encoding.
# ----------------------------------------------------------------------
def encode_record(record: Dict[str, Any]) -> bytes:
    """One WAL line: crc-prefixed compact JSON, newline-terminated."""
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(payload), payload)


def decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Inverse of :func:`encode_record`; ``None`` for a torn or
    corrupt line (missing newline, bad CRC, unparseable payload)."""
    if not line.endswith(b"\n") or len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        want = int(line[:8], 16)
    except ValueError:
        return None
    payload = line[9:-1]
    if zlib.crc32(payload) != want:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def fault_label(record: Dict[str, Any]) -> str:
    """The label WAL fault points match on, e.g. ``"submit S0001"`` or
    ``"event done astar/skylake/fvp"``."""
    parts = [str(record.get("t", ""))]
    for name in ("status", "sid", "label"):
        value = record.get(name)
        if value:
            parts.append(str(value))
    return " ".join(parts)


# ----------------------------------------------------------------------
# The log.
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only, fsync'd, torn-write-tolerant record log.

    Appends arrive from both the scheduler (engine events) and handler
    threads (submits), and the daemon's stats op reads the counters
    concurrently, so the handle and counters live under ``_lock`` —
    the innermost lock of the service hierarchy (docs/SERVICE.md
    §Locking): it is only ever taken last and never held across a call
    back into the board or daemon."""

    #: Attribute guard map enforced by RL008.
    _GUARDED = {
        "_handle": "_lock",
        "appends": "_lock",
        "bytes_written": "_lock",
        "compactions": "_lock",
    }

    def __init__(self, root: str, fsync: bool = True) -> None:
        self.root = root
        self._fsync = fsync
        self._lock = threading.Lock()
        self._handle: Optional[Any] = None
        self.appends = 0
        self.bytes_written = 0
        self.compactions = 0
        os.makedirs(root, exist_ok=True)

    # -- segment bookkeeping -------------------------------------------
    def segment_paths(self) -> List[str]:
        """Existing segment files, oldest first."""
        return segment_paths(self.root)

    def _segment_path(self, seq: int) -> str:
        return os.path.join(self.root,
                            f"{SEGMENT_PREFIX}{seq:06d}{SEGMENT_SUFFIX}")

    def _active_path(self) -> str:
        existing = self.segment_paths()
        return existing[-1] if existing else self._segment_path(1)

    def segments(self) -> int:
        """Number of segment files on disk."""
        return len(self.segment_paths())

    # -- append --------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (write + flush + fsync).

        Service-tier fault points fire here: ``wal-crash`` kills the
        process *before* the write, ``wal-torn`` writes half the
        record and then kills the process — both model a SIGKILL
        landing mid-journal (docs/ROBUSTNESS.md)."""
        line = encode_record(record)
        with self._lock:
            if os.environ.get(faults.FAULTS_ENV):
                action = faults.wal_fault(fault_label(record))
                if action == "wal-crash":
                    os._exit(faults.CRASH_EXIT_CODE)
                if action == "wal-torn":
                    handle = self._open()
                    handle.write(line[:max(1, len(line) // 2)])
                    handle.flush()
                    os.fsync(handle.fileno())
                    os._exit(faults.CRASH_EXIT_CODE)
            handle = self._open()
            handle.write(line)
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
            self.appends += 1
            self.bytes_written += len(line)

    def _open(self) -> Any:
        """The active segment handle, opened lazily (lock held)."""
        if self._handle is None:
            self._handle = open(self._active_path(), "ab")
        return self._handle

    # -- replay --------------------------------------------------------
    def replay(self) -> Tuple[List[Dict[str, Any]], int]:
        """All trusted records, oldest first, plus the torn count.

        Replay stops entirely at the first torn/corrupt record: later
        records (even in later segments) may depend on the lost ones,
        and requeue-plus-cache-dedup makes dropping them safe where
        applying them out of context would not be."""
        return replay_segments(self.root)

    # -- compaction ----------------------------------------------------
    def compact(self, records: List[Dict[str, Any]]) -> None:
        """Replace the full history with a snapshot.

        Writes ``records`` to a ``.tmp``, fsyncs, renames it into
        place as the next segment, then unlinks every older segment.
        A crash before the rename leaves the old history authoritative;
        a crash after it leaves at worst stale segments that the next
        compaction (or ``repro doctor --fix``) removes."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            existing = self.segment_paths()
            next_seq = _segment_seq(existing[-1]) + 1 if existing else 1
            final = self._segment_path(next_seq)
            tmp = final + ".tmp"
            with open(tmp, "wb") as handle:
                for record in records:
                    handle.write(encode_record(record))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, final)
            for path in existing:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self.compactions += 1

    # -- lifecycle -----------------------------------------------------
    def seal(self) -> None:
        """Append the clean-shutdown marker."""
        self.append({"t": "seal"})

    def close(self) -> None:
        """Close the active segment handle."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # -- introspection -------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """A consistent snapshot of the append/compaction counters
        (the daemon's ``stats`` op reads these while the scheduler
        appends, so the read takes the same lock the writers do)."""
        with self._lock:
            return {"appends": self.appends,
                    "bytes": self.bytes_written,
                    "compactions": self.compactions}


# ----------------------------------------------------------------------
# Module-level readers (used by the daemon, doctor, and tests — none
# of them need a live handle).
# ----------------------------------------------------------------------
def _segment_seq(path: str) -> int:
    stem = os.path.basename(path)
    return int(stem[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])


def segment_paths(root: str) -> List[str]:
    """Segment files under ``root``, oldest first ([] if none)."""
    if not os.path.isdir(root):
        return []
    names = [name for name in os.listdir(root)
             if name.startswith(SEGMENT_PREFIX)
             and name.endswith(SEGMENT_SUFFIX)]
    return [os.path.join(root, name) for name in sorted(names)]


def replay_segments(root: str) -> Tuple[List[Dict[str, Any]], int]:
    """Read-only replay of every segment under ``root``; see
    :meth:`WriteAheadLog.replay` for the torn-stop contract."""
    records: List[Dict[str, Any]] = []
    torn = 0
    for path in segment_paths(root):
        broken = False
        try:
            with open(path, "rb") as handle:
                for line in handle:
                    record = decode_record(line)
                    if record is None:
                        torn += 1
                        broken = True
                        break
                    records.append(record)
        except OSError:
            torn += 1
            broken = True
        if broken:
            break
    return records, torn


def orphan_files(root: str) -> List[str]:
    """Leftover compaction temporaries (``*.tmp``) under ``root``."""
    if not os.path.isdir(root):
        return []
    return [os.path.join(root, name) for name in sorted(os.listdir(root))
            if name.endswith(".tmp")]


def corrupt_segments(root: str) -> List[str]:
    """Non-empty segments with *zero* decodable records — nothing to
    recover, safe for ``repro doctor --fix`` to remove.  A segment
    with a merely torn tail still holds live queue state and is *not*
    reported."""
    bad: List[str] = []
    for path in segment_paths(root):
        try:
            if os.path.getsize(path) == 0:
                continue
            with open(path, "rb") as handle:
                decodable = any(decode_record(line) is not None
                                for line in handle)
        except OSError:
            continue
        if not decodable:
            bad.append(path)
    return bad


__all__ = [
    "WAL_DIRNAME",
    "WriteAheadLog",
    "corrupt_segments",
    "decode_record",
    "encode_record",
    "fault_label",
    "orphan_files",
    "replay_segments",
    "segment_paths",
]
