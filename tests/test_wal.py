"""Unit tests for the service write-ahead log: record encoding, torn
tolerance, compaction, and debris scanning (docs/SERVICE.md
§Durability)."""

import os

import pytest

from repro.service import wal


def _records(n, start=0):
    return [{"t": "event", "key": f"k{i}", "status": "done",
             "label": f"job-{i}"} for i in range(start, start + n)]


class TestRecordEncoding:
    def test_roundtrip(self):
        record = {"t": "submit", "sid": "S0001", "priority": 3,
                  "jobs": [{"workload": "astar"}]}
        line = wal.encode_record(record)
        assert line.endswith(b"\n")
        assert wal.decode_record(line) == record

    def test_encoding_is_deterministic(self):
        a = wal.encode_record({"b": 1, "a": 2})
        b = wal.encode_record({"a": 2, "b": 1})
        assert a == b  # sorted keys: byte-identical across processes

    def test_rejects_missing_newline(self):
        line = wal.encode_record({"t": "seal"})
        assert wal.decode_record(line[:-1]) is None

    def test_rejects_bad_crc(self):
        line = wal.encode_record({"t": "seal"})
        flipped = bytes([line[0] ^ 1]) + line[1:]
        assert wal.decode_record(flipped) is None

    def test_rejects_tampered_payload(self):
        line = wal.encode_record({"t": "seal", "x": "aa"})
        assert wal.decode_record(line.replace(b"aa", b"ab")) is None

    def test_rejects_junk_lines(self):
        assert wal.decode_record(b"\n") is None
        assert wal.decode_record(b"not a record\n") is None
        assert wal.decode_record(b"zzzzzzzz {}\n") is None
        # Valid CRC over a non-object payload is still rejected.
        import zlib
        payload = b"[1,2]"
        line = b"%08x %s\n" % (zlib.crc32(payload), payload)
        assert wal.decode_record(line) is None

    def test_fault_label(self):
        assert wal.fault_label({"t": "submit", "sid": "S0001"}) \
            == "submit S0001"
        assert wal.fault_label({"t": "event", "status": "done",
                                "label": "astar/skylake/fvp"}) \
            == "event done astar/skylake/fvp"
        assert wal.fault_label({"t": "seal"}) == "seal"


class TestAppendReplay:
    def test_append_then_replay(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        records = _records(3)
        for record in records:
            log.append(record)
        log.close()
        counts = log.counters()
        assert counts["appends"] == 3
        assert counts["bytes"] > 0
        got, torn = wal.replay_segments(str(tmp_path))
        assert got == records
        assert torn == 0

    def test_replay_empty_dir(self, tmp_path):
        assert wal.replay_segments(str(tmp_path / "nothing")) == ([], 0)

    def test_replay_stops_at_torn_tail(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        records = _records(3)
        for record in records:
            log.append(record)
        log.close()
        # Tear the final append mid-line, as a crash would.
        path = log.segment_paths()[-1]
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:len(data) - len(data.splitlines(True)[-1])
                          + 10])
        got, torn = wal.replay_segments(str(tmp_path))
        assert got == records[:2]  # trusted prefix survives
        assert torn == 1

    def test_replay_stops_at_corrupt_record_mid_log(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        records = _records(3)
        log.append(records[0])
        log.close()
        path = log.segment_paths()[-1]
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(wal.encode_record(records[1]))
        # Everything after the first bad record is discarded, even
        # though it decodes — it may depend on the lost one.
        got, torn = wal.replay_segments(str(tmp_path))
        assert got == records[:1]
        assert torn == 1

    def test_torn_stop_spans_segments(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.append(_records(1)[0])
        log.close()
        # A wholly-corrupt first segment hides the valid second one.
        first = log.segment_paths()[0]
        with open(first, "wb") as fh:
            fh.write(b"junk\n")
        second = os.path.join(str(tmp_path), "segment-000002.wal")
        with open(second, "wb") as fh:
            fh.write(wal.encode_record({"t": "seal"}))
        got, torn = wal.replay_segments(str(tmp_path))
        assert got == []
        assert torn == 1

    def test_seal_appends_marker(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.seal()
        log.close()
        got, torn = wal.replay_segments(str(tmp_path))
        assert got == [{"t": "seal"}] and torn == 0


class TestCompaction:
    def test_compact_replaces_history(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        for record in _records(5):
            log.append(record)
        snapshot = [{"t": "seq", "value": 5}] + _records(2, start=3)
        log.compact(snapshot)
        assert log.counters()["compactions"] == 1
        assert log.segments() == 1
        got, torn = wal.replay_segments(str(tmp_path))
        assert got == snapshot and torn == 0

    def test_appends_continue_after_compaction(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.append({"t": "seq", "value": 1})
        log.compact([{"t": "seq", "value": 1}])
        log.append({"t": "seal"})
        log.close()
        got, _ = wal.replay_segments(str(tmp_path))
        assert got == [{"t": "seq", "value": 1}, {"t": "seal"}]

    def test_segment_numbers_monotonic(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.append({"t": "seq", "value": 1})
        log.compact([])
        log.compact([])
        names = [os.path.basename(p) for p in log.segment_paths()]
        assert names == ["segment-000003.wal"]


class TestDebrisScanning:
    def test_orphan_files(self, tmp_path):
        assert wal.orphan_files(str(tmp_path / "none")) == []
        orphan = tmp_path / "segment-000009.wal.tmp"
        orphan.write_bytes(b"partial")
        assert wal.orphan_files(str(tmp_path)) == [str(orphan)]

    def test_corrupt_segments_flags_only_hopeless_files(self, tmp_path):
        log = wal.WriteAheadLog(str(tmp_path))
        log.append({"t": "seal"})
        log.close()
        intact = log.segment_paths()[0]
        # A torn tail after a valid record: live state, not corrupt.
        with open(intact, "ab") as fh:
            fh.write(b"0000")
        hopeless = os.path.join(str(tmp_path), "segment-000002.wal")
        with open(hopeless, "wb") as fh:
            fh.write(b"no records here\n")
        empty = os.path.join(str(tmp_path), "segment-000003.wal")
        open(empty, "wb").close()
        assert wal.corrupt_segments(str(tmp_path)) == [hopeless]

