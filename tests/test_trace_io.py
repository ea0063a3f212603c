"""Tests for trace serialization (the v2 mmap-able format)."""

import gzip
import struct

import pytest

from repro.trace import build_trace, get_profile
from repro.trace.io import (MAGIC, FileSource, inspect_trace, open_trace,
                            trace_file_hash, trace_file_length,
                            write_trace_file)

FIELDS = ("pc", "op", "dest", "srcs", "value", "addr", "mem_size",
          "taken", "target")


def _key(uop):
    # MicroOp has no __eq__ (identity compare); compare field-wise.
    return tuple(getattr(uop, field) for field in FIELDS)


@pytest.fixture
def trace():
    return build_trace(get_profile("astar"), 3000)


class TestErrors:
    def test_too_many_sources(self, tmp_path):
        from repro.isa import MicroOp, opcodes

        uop = MicroOp(0x400000, opcodes.ALU, dest=0, srcs=(1, 2, 3, 4, 5))
        with pytest.raises(ValueError, match="4 sources"):
            write_trace_file([uop], str(tmp_path / "x.rvt"))


class TestStreamFormat:
    """The v2 uncompressed, mmap-able trace-file format."""

    def test_write_open_round_trip(self, trace, tmp_path):
        path = str(tmp_path / "astar.rvt")
        written = write_trace_file(trace, path)
        assert written == len(trace)
        with open_trace(path) as source:
            assert len(source) == len(trace)
            replayed = [_key(uop) for uop in source.ops()]
        assert replayed == [_key(uop) for uop in trace]

    def test_streaming_write_from_profile_source(self, tmp_path):
        from repro.trace.builder import stream_trace

        path = str(tmp_path / "stream.rvt")
        count = write_trace_file(
            stream_trace(get_profile("astar"), 3000), path)
        assert count == trace_file_length(path) >= 3000
        with open_trace(path) as source:
            direct = build_trace(get_profile("astar"), 3000)
            assert [_key(u) for u in source.ops()] \
                == [_key(u) for u in direct]

    def test_replay_is_deterministic_across_passes(self, trace, tmp_path):
        path = str(tmp_path / "astar.rvt")
        write_trace_file(trace, path)
        with open_trace(path, chunk_ops=97) as source:
            first = [_key(uop) for uop in source.ops()]
            second = [_key(uop) for uop in source.ops()]
        assert first == second

    def test_content_hash_is_stable_and_content_addressed(
            self, trace, tmp_path):
        a = str(tmp_path / "a.rvt")
        b = str(tmp_path / "b.rvt")
        write_trace_file(trace, a)
        write_trace_file(trace, b)
        assert trace_file_hash(a) == trace_file_hash(b)
        other = str(tmp_path / "other.rvt")
        write_trace_file(build_trace(get_profile("mcf"), 3000), other)
        assert trace_file_hash(a) != trace_file_hash(other)
        with open_trace(a) as source:
            assert source.content_hash == trace_file_hash(a)

    def test_inspect(self, trace, tmp_path):
        path = str(tmp_path / "astar.rvt")
        write_trace_file(trace, path)
        info = inspect_trace(path, verify=True)
        assert info["ops"] == len(trace)
        assert info["version"] == 2
        assert info["content_hash"] == trace_file_hash(path)
        assert info["verified"] is True

    def test_inspect_detects_corruption(self, trace, tmp_path):
        path = str(tmp_path / "astar.rvt")
        write_trace_file(trace, path)
        with open(path, "r+b") as handle:
            handle.seek(-4, 2)
            handle.write(b"\xde\xad\xbe\xef")
        assert inspect_trace(path)["ops"] == len(trace)  # header-only OK
        with pytest.raises(ValueError, match="content hash mismatch"):
            inspect_trace(path, verify=True)

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.rvt")
        assert write_trace_file([], path) == 0
        assert trace_file_length(path) == 0
        with open_trace(path) as source:
            assert list(source.ops()) == []

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.rvt")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ValueError, match="magic"):
            open_trace(path)

    def test_v1_file_rejected_with_version_error(self, trace, tmp_path):
        # A gzip artefact of the retired v1 format (``<4sHI`` header,
        # then the same records) is not a v2 stream; the magic check
        # fires on the gzip header bytes before any version confusion.
        v2 = str(tmp_path / "astar.rvt")
        write_trace_file(trace, v2)
        with open(v2, "rb") as handle:
            records = handle.read()[48:]
        path = str(tmp_path / "v1.rvpt.gz")
        with gzip.open(path, "wb") as handle:
            handle.write(struct.pack("<4sHI", MAGIC, 1, len(trace)))
            handle.write(records)
        with pytest.raises(ValueError, match="magic|version"):
            open_trace(path)

    def test_truncated_payload(self, trace, tmp_path):
        path = str(tmp_path / "t.rvt")
        write_trace_file(trace, path)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[:len(data) - 20])
        with pytest.raises(ValueError, match="truncated"):
            open_trace(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "stub.rvt")
        with open(path, "wb") as handle:
            handle.write(b"RVPT")
        with pytest.raises(ValueError, match="no header"):
            trace_file_length(path)

    def test_close_releases_mapping(self, trace, tmp_path):
        path = str(tmp_path / "astar.rvt")
        write_trace_file(trace, path)
        source = FileSource(path)
        assert len(source) == len(trace)
        source.close()
        with pytest.raises(ValueError):
            next(iter(source.chunks()))
