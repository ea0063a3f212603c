"""Trace serialization.

Traces are deterministic and cheap to rebuild, but saving them is
useful for sharing exact inputs, diffing generator changes, replaying
million-op workloads under bounded RSS, and feeding external tools.
The one on-disk format (v2) stores each micro-op as a little-endian,
44-byte record::

    u64 pc
    u8  op
    u8  dest          (0xFF = none)
    u8  n_srcs        (up to 4)
    u8  padding
    u32 srcs_packed   (8 bits per source register, low byte first)
    u64 value
    u64 addr          (0xFFFF_FFFF_FFFF_FFFF = none)
    u8  mem_size
    u8  flags         (bit 0 = taken)
    u16 reserved
    u64 target

:func:`write_trace_file` writes the records uncompressed behind a
48-byte header ``magic, version, reserved, u64 count,
sha256(records)``, so :func:`open_trace` can mmap the file and replay
it as a bounded-window :class:`FileSource` without ever materializing
the trace.  The content hash feeds campaign cache keys
(:func:`repro.experiments.campaign.job_key`) — two files with equal
hashes simulate identically.  See docs/TRACES.md for the full format
and protocol story.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from typing import TYPE_CHECKING, Dict, Iterator, Sequence, Union

from repro.isa.instruction import MicroOp

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids numpy import)
    from repro.trace.soa import SoaWindow
from repro.trace.source import (DEFAULT_CHUNK_OPS, TraceSource,
                                as_source)

MAGIC = b"RVPT"
#: Version tag of the uncompressed, mmap-able trace-file format.
STREAM_VERSION = 2

#: v2 header: magic, version, reserved, record count, sha256 of the
#: record bytes (48 bytes total).
_HEADER2 = struct.Struct("<4sHHQ32s")
_RECORD = struct.Struct("<QBBBxIQQBBHQ")
_NO_DEST = 0xFF
_NO_ADDR = (1 << 64) - 1


def _encode(uop: MicroOp) -> bytes:
    """One packed 44-byte record for ``uop``."""
    if len(uop.srcs) > 4:
        raise ValueError("record format supports up to 4 sources")
    srcs_packed = 0
    for index, src in enumerate(uop.srcs):
        srcs_packed |= (src & 0xFF) << (8 * index)
    return _RECORD.pack(
        uop.pc,
        uop.op,
        _NO_DEST if uop.dest is None else uop.dest,
        len(uop.srcs),
        srcs_packed,
        uop.value,
        _NO_ADDR if uop.addr is None else uop.addr,
        uop.mem_size,
        1 if uop.taken else 0,
        0,
        uop.target,
    )


def _decode(fields: tuple) -> MicroOp:
    """The :class:`MicroOp` for one unpacked record tuple."""
    (pc, op, dest, n_srcs, srcs_packed, value, addr, mem_size,
     flags, _reserved, target) = fields
    srcs = tuple((srcs_packed >> (8 * index)) & 0xFF
                 for index in range(n_srcs))
    return MicroOp(
        pc, op,
        dest=None if dest == _NO_DEST else dest,
        srcs=srcs,
        value=value,
        addr=None if addr == _NO_ADDR else addr,
        mem_size=mem_size,
        taken=bool(flags & 1),
        target=target,
    )


# ----------------------------------------------------------------------
# v2: uncompressed, mmap-able, streaming both ways.
# ----------------------------------------------------------------------
def write_trace_file(trace: Union[TraceSource, Sequence[MicroOp]],
                     path: str) -> int:
    """Stream a trace to an uncompressed v2 file; returns the op count.

    Accepts a :class:`~repro.trace.source.TraceSource` or a plain
    sequence; delivery is window-by-window, so a
    :class:`~repro.trace.builder.ProfileSource` can be written without
    the full trace ever being resident.  The header records the op
    count and the sha256 of the record bytes (the file's content
    identity)."""
    source = as_source(trace)
    digest = hashlib.sha256()
    count = 0
    with open(path, "w+b") as handle:
        handle.write(_HEADER2.pack(MAGIC, STREAM_VERSION, 0, 0, b"\0" * 32))
        for window in source.chunks():
            block = b"".join(_encode(uop) for uop in window)
            handle.write(block)
            digest.update(block)
            count += len(window)
        handle.seek(0)
        handle.write(_HEADER2.pack(MAGIC, STREAM_VERSION, 0, count,
                                   digest.digest()))
    return count


def _read_stream_header(path: str) -> tuple:
    """``(count, content_hash_hex)`` from a v2 file's header, with the
    same validation errors :func:`open_trace` raises."""
    file_size = os.path.getsize(path)
    if file_size < _HEADER2.size:
        raise ValueError("truncated trace file: no header")
    with open(path, "rb") as handle:
        magic, version, _reserved, count, sha = _HEADER2.unpack(
            handle.read(_HEADER2.size))
    if magic != MAGIC:
        raise ValueError(f"not a trace file: bad magic {magic!r}")
    if version != STREAM_VERSION:
        raise ValueError(f"unsupported trace version {version} "
                         f"(expected {STREAM_VERSION})")
    if file_size != _HEADER2.size + count * _RECORD.size:
        raise ValueError(
            f"truncated trace file: header promises {count} records, "
            f"payload holds {(file_size - _HEADER2.size) // _RECORD.size}")
    return count, sha.hex()


def trace_file_length(path: str) -> int:
    """The op count a v2 trace file's header declares (header-only
    read — O(1) in the trace length)."""
    count, _sha = _read_stream_header(path)
    return count


def trace_file_hash(path: str) -> str:
    """The sha256 content hash a v2 trace file's header declares (hex).

    Reading only the header keeps campaign cache-key construction O(1)
    in the trace length; :func:`inspect_trace` with ``verify=True``
    recomputes the hash from the payload when integrity matters."""
    _count, sha = _read_stream_header(path)
    return sha


class FileSource(TraceSource):
    """mmap-backed replay of a v2 trace file as a bounded-window
    :class:`~repro.trace.source.TraceSource`.

    Records are decoded window-by-window straight out of the mapping:
    peak resident state is one window of :class:`MicroOp` objects plus
    the (kernel-managed) mapped pages, whatever the trace length —
    this is the path that takes million-op workloads under a fixed RSS
    budget.  Replay is deterministic by construction: every pass
    decodes the same bytes.

    Usable as a context manager; :meth:`close` drops the mapping.
    """

    def __init__(self, path: str,
                 chunk_ops: int = DEFAULT_CHUNK_OPS) -> None:
        super().__init__(chunk_ops)
        self.path = path
        self._count, self.content_hash = _read_stream_header(path)
        with open(path, "rb") as handle:
            self._mmap = mmap.mmap(handle.fileno(), 0,
                                   access=mmap.ACCESS_READ)
        self._view = memoryview(self._mmap)[_HEADER2.size:]

    def __len__(self) -> int:
        return self._count

    def _windows(self) -> Iterator[Sequence[MicroOp]]:
        record = _RECORD
        width = record.size
        view = self._view
        decode = _decode
        for start in range(0, self._count, self.chunk_ops):
            stop = min(start + self.chunk_ops, self._count)
            raw = view[start * width:stop * width]
            yield [decode(fields) for fields in record.iter_unpack(raw)]

    def _soa_windows(self) -> Iterator["SoaWindow"]:
        """Columnar decode straight from the mapping: each window's
        record bytes become numpy-backed columns without ever building
        :class:`MicroOp` objects — the vector backend's file-replay
        fast path (docs/VECTOR.md)."""
        from repro.trace.soa import SoaWindow
        width = _RECORD.size
        view = self._view
        for start in range(0, self._count, self.chunk_ops):
            stop = min(start + self.chunk_ops, self._count)
            yield SoaWindow.from_records(bytes(view[start * width:
                                                    stop * width]))

    def close(self) -> None:
        """Release the memoryview and the underlying mapping."""
        self._view.release()
        self._mmap.close()

    def __enter__(self) -> "FileSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_trace(path: str,
               chunk_ops: int = DEFAULT_CHUNK_OPS) -> FileSource:
    """Open a v2 trace file for mmap-backed streaming replay."""
    return FileSource(path, chunk_ops)


def inspect_trace(path: str, verify: bool = False) -> Dict[str, object]:
    """Header summary of a v2 trace file (``repro trace inspect``).

    With ``verify=True`` the record payload is re-hashed in one
    bounded-memory pass and compared against the header's content
    hash; a mismatch raises :class:`ValueError` (the file is corrupt
    or was tampered with)."""
    count, sha = _read_stream_header(path)
    info: Dict[str, object] = {
        "path": path,
        "version": STREAM_VERSION,
        "ops": count,
        "content_hash": sha,
        "size_bytes": os.path.getsize(path),
    }
    if verify:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            handle.seek(_HEADER2.size)
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        if digest.hexdigest() != sha:
            raise ValueError(
                f"content hash mismatch in {path}: header {sha}, "
                f"payload {digest.hexdigest()}")
        info["verified"] = True
    return info
