"""Blocking client helpers for the campaign service.

Thin wrappers over the socket protocol used by the ``repro submit`` /
``watch`` / ``jobs`` subcommands and the test-suite.  Every helper
connects, performs one operation, and returns plain frame dicts; a
missing or dead daemon raises
:class:`~repro.errors.ServiceUnavailable` with the socket path in the
message, and an ``error`` event from the daemon is re-raised as the
error class it names (:class:`~repro.errors.ProtocolError` for
protocol violations, :class:`~repro.errors.ServiceOverloaded` for
backpressure rejections, :class:`~repro.errors.ServiceError`
otherwise).

Resilience (PR 9, docs/SERVICE.md §Durability):

* No helper can hang forever by default — ``watch`` and ``shutdown``
  now carry finite default timeouts, and a socket timeout surfaces as
  a typed :class:`ServiceUnavailable`, never a raw ``socket.timeout``.
  Timeouts bound each frame *gap*, not the whole campaign; raise them
  for jobs whose single simulation outlasts the default gap.
* ``watch`` (and ``submit`` once its submission is acknowledged)
  survives a severed stream or a daemon restart: the client tracks its
  journal cursor, reconnects with bounded exponential backoff, and
  resumes the stream exactly where it broke — the board's replayable
  journals guarantee the resumed frames are the ones it would have
  seen.  Daemon-reported errors (unknown submission id, protocol
  violations) are *not* retried.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.errors import (
    ProtocolError,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.experiments.campaign import Job
from repro.service.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    job_to_wire,
    read_frames,
)

#: Default per-frame-gap timeout for ``watch`` (seconds).  Finite so a
#: dead daemon can never hang a watcher forever; large enough that any
#: sane single job completes within one gap.
DEFAULT_WATCH_TIMEOUT = 600.0

#: Default timeout for ``shutdown`` (the daemon answers ``bye`` before
#: draining, so this only needs to cover a busy accept loop).
DEFAULT_SHUTDOWN_TIMEOUT = 30.0

#: Default reconnect budget for streaming helpers: attempts, initial
#: backoff, and the backoff ceiling (seconds).
DEFAULT_RECONNECT = 5
DEFAULT_BACKOFF = 0.25
BACKOFF_CAP = 5.0

#: Daemon error-frame ``kind`` → the exception class it names.
_ERROR_KINDS = {
    "ProtocolError": ProtocolError,
    "ServiceOverloaded": ServiceOverloaded,
}


class _StreamLost(Exception):
    """Internal: the event stream broke mid-flight (connection reset,
    truncated frame, daemon restart) — retryable, unlike a
    daemon-reported error."""


def _connect(path: str, timeout: Optional[float]) -> socket.socket:
    """Open a connection to the daemon, or raise
    :class:`ServiceUnavailable`."""
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(timeout)
    try:
        conn.connect(path)
    except OSError as exc:
        conn.close()
        raise ServiceUnavailable(
            f"no campaign service at {path} ({exc}); start one with "
            "`repro serve`") from exc
    return conn


def _raise_if_error(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Convert a daemon ``error`` event into the exception it names."""
    if frame.get("event") == "error":
        message = str(frame.get("error"))
        raise _ERROR_KINDS.get(str(frame.get("kind")),
                               ServiceError)(message)
    return frame


def _stream(conn: socket.socket, path: str) -> Iterator[Dict[str, Any]]:
    """Frames off one connection, with transport failures typed: a
    frame-gap timeout raises :class:`ServiceUnavailable`; a reset or
    truncated stream raises :class:`_StreamLost` (retryable)."""
    with conn.makefile("rb") as stream:
        frames = read_frames(stream)
        while True:
            try:
                frame = next(frames)
            except StopIteration:
                return
            except socket.timeout as exc:
                raise ServiceUnavailable(
                    f"daemon at {path} went silent past the frame-gap "
                    f"timeout ({exc})") from exc
            except ProtocolError as exc:
                # A half-written final line means the stream was
                # severed mid-frame, not that the daemon spoke junk.
                raise _StreamLost(f"stream truncated: {exc}") from exc
            except OSError as exc:
                raise _StreamLost(f"stream broke: {exc}") from exc
            yield frame


def _roundtrip(path: str, frame: Dict[str, Any],
               timeout: Optional[float]) -> Dict[str, Any]:
    """One request, one response frame."""
    conn = _connect(path, timeout)
    try:
        try:
            conn.sendall(encode_frame(frame))
            with conn.makefile("rb") as stream:
                for reply in read_frames(stream):
                    return _raise_if_error(reply)
        except socket.timeout as exc:
            raise ServiceUnavailable(
                f"daemon at {path} did not answer within the timeout "
                f"({exc})") from exc
        except ProtocolError:
            raise
        except OSError as exc:
            raise ServiceUnavailable(
                f"daemon at {path} dropped the connection "
                f"({exc})") from exc
    finally:
        conn.close()
    raise ServiceUnavailable(
        f"daemon at {path} closed the connection without answering")


def ping(path: str, timeout: Optional[float] = 5.0) -> Dict[str, Any]:
    """Liveness probe; returns the ``pong`` frame."""
    return _roundtrip(path, {"v": PROTOCOL_VERSION, "op": "ping"},
                      timeout)


def list_jobs(path: str,
              timeout: Optional[float] = 5.0) -> Dict[str, Any]:
    """Queue / submission / record summary (the ``jobs`` frame)."""
    return _roundtrip(path, {"v": PROTOCOL_VERSION, "op": "jobs"},
                      timeout)


def fetch_stats(path: str,
                timeout: Optional[float] = 5.0) -> Dict[str, Any]:
    """The daemon's telemetry tree as a ``to_dict`` payload."""
    return _roundtrip(path, {"v": PROTOCOL_VERSION, "op": "stats"},
                      timeout)


def shutdown(path: str,
             timeout: Optional[float] = DEFAULT_SHUTDOWN_TIMEOUT
             ) -> Dict[str, Any]:
    """Ask the daemon to drain and exit; returns the ``bye`` frame."""
    return _roundtrip(path, {"v": PROTOCOL_VERSION, "op": "shutdown"},
                      timeout)


def submit(path: str, jobs: Sequence[Job], watch: bool = True,
           timeout: Optional[float] = None,
           reconnect: int = DEFAULT_RECONNECT,
           backoff: float = DEFAULT_BACKOFF
           ) -> Iterator[Dict[str, Any]]:
    """Submit jobs; yields the ``accepted`` frame, then (with
    ``watch``) every journal event through ``complete``.

    The iterator owns the connection: consume it fully (or close the
    generator) to release the socket.  ``timeout`` bounds each frame
    *gap*, not the whole campaign — ``None`` (default) waits as long
    as the daemon keeps streaming.

    Once the submission is acknowledged its id is known, so a broken
    stream (or a daemon crash + restart) is survivable: the client
    switches to :func:`watch` and resumes from its journal cursor.  A
    failure *before* acknowledgement raises — resubmitting is the
    caller's decision, not the transport's."""
    request = {"v": PROTOCOL_VERSION, "op": "submit",
               "jobs": [job_to_wire(job) for job in jobs],
               "watch": watch}
    sid: Optional[str] = None
    cursor = 0
    conn = _connect(path, timeout)
    try:
        try:
            conn.sendall(encode_frame(request))
            for frame in _stream(conn, path):
                _raise_if_error(frame)
                if frame.get("event") == "accepted":
                    sid = str(frame.get("id"))
                    yield frame
                    if not watch:
                        return
                    continue
                cursor += 1
                yield frame
                if frame.get("event") == "complete":
                    return
            if sid is None:
                raise ServiceUnavailable(
                    f"daemon at {path} closed the connection before "
                    "acknowledging the submission")
        except _StreamLost as exc:
            if sid is None:
                raise ServiceUnavailable(
                    f"submission to {path} failed before "
                    f"acknowledgement: {exc}") from exc
        except ServiceUnavailable:
            if sid is None:
                raise
    finally:
        conn.close()
    # Acknowledged but interrupted: resume the journal where it broke.
    yield from _watch_from(path, sid, cursor, timeout,
                           reconnect, backoff)


def watch(path: str, submission_id: str,
          timeout: Optional[float] = DEFAULT_WATCH_TIMEOUT,
          cursor: int = 0,
          reconnect: int = DEFAULT_RECONNECT,
          backoff: float = DEFAULT_BACKOFF
          ) -> Iterator[Dict[str, Any]]:
    """Replay + follow an existing submission's journal through its
    ``complete`` frame, starting at ``cursor``.

    Reconnects with bounded exponential backoff (``reconnect``
    attempts, ``backoff`` initial delay) when the stream breaks or
    the daemon is briefly down, resuming from the last frame seen;
    the attempt budget resets whenever a frame arrives.  Raises
    :class:`ServiceUnavailable` once the budget is exhausted."""
    yield from _watch_from(path, submission_id, cursor, timeout,
                           reconnect, backoff)


def _watch_from(path: str, submission_id: str, cursor: int,
                timeout: Optional[float], reconnect: int,
                backoff: float) -> Iterator[Dict[str, Any]]:
    attempt = 0
    while True:
        try:
            conn = _connect(path, timeout)
            try:
                conn.sendall(encode_frame(
                    {"v": PROTOCOL_VERSION, "op": "watch",
                     "id": submission_id, "cursor": cursor}))
                for frame in _stream(conn, path):
                    _raise_if_error(frame)
                    attempt = 0
                    cursor += 1
                    yield frame
                    if frame.get("event") == "complete":
                        return
            finally:
                conn.close()
            raise _StreamLost(
                "stream ended before the complete frame")
        except (_StreamLost, ServiceUnavailable) as exc:
            attempt += 1
            if attempt > reconnect:
                if isinstance(exc, ServiceUnavailable):
                    raise
                raise ServiceUnavailable(
                    f"watch of {submission_id} on {path} failed after "
                    f"{reconnect} reconnect attempts: {exc}") from exc
            time.sleep(min(backoff * (2 ** (attempt - 1)),
                           BACKOFF_CAP))


def collect_results(frames: Iterator[Dict[str, Any]]
                    ) -> Dict[str, Any]:
    """Drain a :func:`submit` / :func:`watch` stream into
    ``{"accepted": ..., "complete": ..., "results": {job key:
    result}, "failures": {job key: error}}`` — the shape the CLI and
    tests consume.  Results are keyed by the content-hash job key
    (labels are not unique across trace shapes)."""
    out: Dict[str, Any] = {"accepted": None, "complete": None,
                           "results": {}, "failures": {}}
    for frame in frames:
        kind = frame.get("event")
        if kind == "accepted":
            out["accepted"] = frame
        elif kind == "complete":
            out["complete"] = frame
        elif kind == "job":
            if frame.get("status") in ("hit", "done"):
                out["results"][frame["key"]] = frame.get("result")
            elif frame.get("status") == "fail":
                out["failures"][frame["key"]] = frame.get("error")
    return out


__all__ = [
    "BACKOFF_CAP",
    "DEFAULT_BACKOFF",
    "DEFAULT_RECONNECT",
    "DEFAULT_SHUTDOWN_TIMEOUT",
    "DEFAULT_WATCH_TIMEOUT",
    "collect_results",
    "fetch_stats",
    "list_jobs",
    "ping",
    "shutdown",
    "submit",
    "watch",
]
