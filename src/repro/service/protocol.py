"""Wire protocol for the campaign service (docs/SERVICE.md).

Everything on the socket is a *frame*: one JSON object per line, UTF-8
encoded — trivially debuggable with ``nc -U`` and greppable in logs.
Requests carry ``{"v": PROTOCOL_VERSION, "op": <verb>, ...}``; the
daemon answers with event frames ``{"event": <kind>, ...}``.  A
malformed line, an unknown op, or a version the daemon does not speak
raises :class:`~repro.errors.ProtocolError` (reported to the offending
client as an ``error`` event; the connection survives).

Request vocabulary
------------------
``ping``       liveness probe → ``pong``
``submit``     enqueue jobs → ``accepted`` (+ streamed events when
               ``watch`` is true)
``watch``      replay + follow a submission's event journal; an
               optional ``cursor`` (journal frames already seen)
               resumes a reconnecting client mid-stream
``jobs``       queue / submission / record summary → ``jobs``
``stats``      daemon telemetry tree → ``stats``
``shutdown``   drain and stop the daemon → ``bye``

Jobs cross the wire as plain dicts (:func:`job_to_wire` /
:func:`job_from_wire`).  Only *distributable* jobs — named predictor
specs — are representable; callable specs never leave the submitting
process, exactly the constraint the worker pool already imposes.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, Iterator, Optional

from repro.errors import ProtocolError
from repro.experiments.campaign import (
    Job,
    RawJSON,
    cache_root,
    canonical_json,
)

#: Bumped on incompatible frame-shape changes; both ends send it and
#: reject frames from the future.
PROTOCOL_VERSION = 1

#: Socket filename inside the cache directory (the service and the
#: cache tier share a home on purpose: one directory = one tier).
SOCKET_NAME = "service.sock"

#: Upper bound on one frame, in bytes — a submission of thousands of
#: jobs fits with room to spare; anything larger is a protocol abuse.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Ops a client may send.
REQUEST_OPS = ("ping", "submit", "watch", "jobs", "stats", "shutdown")

#: Wire fields of a job, in :class:`Job` declaration order.
_JOB_FIELDS = ("workload", "core", "spec", "length", "warmup",
               "seed", "trace_file")


def socket_path(cache_dir: Optional[str] = None) -> str:
    """Resolve the daemon's unix-socket path.

    Priority: ``REPRO_SERVICE_SOCKET`` override, else
    ``<cache_dir>/service.sock`` where ``cache_dir`` falls back to
    ``REPRO_CACHE_DIR`` / the default cache directory — so clients and
    daemon agree on the rendezvous without any flag, per cache tier.
    """
    override = os.environ.get("REPRO_SERVICE_SOCKET")
    if override:
        return override
    return os.path.join(cache_root(cache_dir), SOCKET_NAME)


def encode_result(result: Dict[str, Any]) -> RawJSON:
    """A result payload's wire text, encoded once per job record;
    :func:`encode_frame` inserts it verbatim into every frame that
    carries it."""
    return RawJSON(canonical_json(result))


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialise one frame to its newline-terminated wire form.  A
    top-level :class:`~repro.experiments.campaign.RawJSON` value (a
    held result, see :func:`encode_result`) goes on the wire as the
    JSON it holds, exactly as if the frame carried the decoded dict."""
    return canonical_json(frame).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` on oversized, non-JSON, or
    non-object lines."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds "
                            f"limit {MAX_FRAME_BYTES}")
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}")
    return frame


def read_frames(stream: IO[bytes]) -> Iterator[Dict[str, Any]]:
    """Yield frames from a socket file object until EOF.

    Reads are bounded at :data:`MAX_FRAME_BYTES` per line so a
    slow-loris peer trickling a newline-free stream can exhaust its
    own patience, not the daemon's memory; an over-long line (and the
    half-frame tail of a severed stream) raises
    :class:`ProtocolError`."""
    while True:
        line = stream.readline(MAX_FRAME_BYTES + 1)
        if not line:
            return
        if not line.endswith(b"\n"):
            if len(line) > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame exceeds limit {MAX_FRAME_BYTES} without a "
                    "newline")
            # EOF mid-line: the peer died mid-frame.
            raise ProtocolError(
                f"stream severed mid-frame ({len(line)} bytes of an "
                "unterminated line)")
        if line.strip():
            yield decode_frame(line)


def check_request(frame: Dict[str, Any]) -> str:
    """Validate a request frame's version and op; returns the op."""
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"protocol version {version!r} not "
                            f"supported (daemon speaks "
                            f"{PROTOCOL_VERSION})")
    op = frame.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(f"unknown op {op!r} "
                            f"(expected one of {', '.join(REQUEST_OPS)})")
    return str(op)


def job_to_wire(job: Job) -> Dict[str, Any]:
    """A job's wire dict.  Raises :class:`ProtocolError` for callable
    predictor specs, which cannot cross a process boundary."""
    if not job.distributable:
        raise ProtocolError(
            f"job {job.label} has a callable predictor spec; only "
            "named specs are serialisable")
    return {name: getattr(job, name) for name in _JOB_FIELDS}


def job_from_wire(wire: Dict[str, Any]) -> Job:
    """Reconstruct a :class:`Job` from its wire dict, validating field
    presence and types (the daemon never trusts a client frame)."""
    if not isinstance(wire, dict):
        raise ProtocolError(
            f"job must be an object, got {type(wire).__name__}")
    unknown = set(wire) - set(_JOB_FIELDS)
    if unknown:
        raise ProtocolError(f"unknown job fields: {sorted(unknown)}")
    for name in ("workload", "core"):
        if not isinstance(wire.get(name), str):
            raise ProtocolError(f"job field {name!r} must be a string")
    spec = wire.get("spec")
    if spec is not None and not isinstance(spec, str):
        raise ProtocolError("job field 'spec' must be a string or null")
    for name in ("length", "warmup"):
        if name in wire and not isinstance(wire[name], int):
            raise ProtocolError(f"job field {name!r} must be an int")
    seed = wire.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ProtocolError("job field 'seed' must be an int or null")
    trace_file = wire.get("trace_file")
    if trace_file is not None and not isinstance(trace_file, str):
        raise ProtocolError(
            "job field 'trace_file' must be a string or null")
    return Job(workload=wire["workload"], core=wire["core"], spec=spec,
               length=wire.get("length", 100_000),
               warmup=wire.get("warmup", 40_000),
               seed=seed, trace_file=trace_file)


__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "SOCKET_NAME",
    "check_request",
    "decode_frame",
    "encode_frame",
    "encode_result",
    "job_from_wire",
    "job_to_wire",
    "read_frames",
    "socket_path",
]
