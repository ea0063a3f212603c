"""Tests for the campaign service: wire protocol, job board, daemon
round-trips, concurrent clients, crash/restart cache consistency, the
cache-tier eviction budget, and the doctor hygiene checks."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import (
    ConfigError,
    ProtocolError,
    ServiceError,
    ServiceOverloaded,
    ServiceUnavailable,
)
from repro.experiments.campaign import (
    Job,
    JobEvent,
    ResultCache,
    execute_job,
    job_key,
    parse_size,
)
from repro.service import client
from repro.service import wal as wal_mod
from repro.service.board import JobBoard
from repro.service.daemon import ServiceDaemon
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    check_request,
    decode_frame,
    encode_frame,
    job_from_wire,
    job_to_wire,
    socket_path,
)
from repro.telemetry.schema import SERVICE_SCHEMA, validate_paths

LENGTH = 3000
WARMUP = 800

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_job(workload="astar", core="skylake", spec="fvp",
             length=LENGTH, warmup=WARMUP, seed=None, trace_file=None):
    return Job(workload, core, spec, length, warmup, seed, trace_file)


def wire_result(job):
    """The serial reference result in wire form (JSON round-tripped,
    exactly what the daemon streams for the same job)."""
    return json.loads(json.dumps(execute_job(job).to_dict()))


def recovery_stats(sock):
    """The live daemon's ``service.recovery.*`` counters by name."""
    tree = client.fetch_stats(sock)["tree"]
    group = tree["children"]["service"]["children"]["recovery"]
    return {name: node["value"]
            for name, node in group["children"].items()}


# ----------------------------------------------------------------------
# Wire protocol.
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip(self):
        frame = {"v": 1, "op": "ping", "nested": {"a": [1, 2]}}
        encoded = encode_frame(frame)
        assert encoded.endswith(b"\n")
        assert decode_frame(encoded) == frame

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2]\n")

    def test_decode_rejects_oversized(self):
        line = b"x" * (MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            decode_frame(line)

    def test_check_request_validates_version(self):
        with pytest.raises(ProtocolError):
            check_request({"v": 99, "op": "ping"})
        with pytest.raises(ProtocolError):
            check_request({"op": "ping"})

    def test_check_request_validates_op(self):
        with pytest.raises(ProtocolError):
            check_request({"v": PROTOCOL_VERSION, "op": "frobnicate"})
        assert check_request({"v": PROTOCOL_VERSION,
                              "op": "ping"}) == "ping"

    def test_job_wire_roundtrip(self):
        job = make_job(seed=7)
        assert job_from_wire(job_to_wire(job)) == job
        baseline = make_job(spec=None)
        assert job_from_wire(job_to_wire(baseline)) == baseline

    def test_callable_spec_not_serialisable(self):
        with pytest.raises(ProtocolError):
            job_to_wire(make_job(spec=lambda: None))

    @pytest.mark.parametrize("wire", [
        {"core": "skylake"},                          # missing workload
        {"workload": 3, "core": "skylake"},           # wrong type
        {"workload": "astar", "core": "skylake", "spec": 5},
        {"workload": "astar", "core": "skylake", "length": "big"},
        {"workload": "astar", "core": "skylake", "seed": "x"},
        {"workload": "astar", "core": "skylake", "bogus": 1},
        {"workload": "astar", "core": "skylake", "backend": "scalar"},
    ])
    def test_job_from_wire_rejects_bad_fields(self, wire):
        with pytest.raises(ProtocolError):
            job_from_wire(wire)

    def test_socket_path_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SERVICE_SOCKET", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert socket_path(str(tmp_path)) == \
            os.path.join(str(tmp_path), "service.sock")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        assert socket_path() == "/elsewhere/service.sock"
        monkeypatch.setenv("REPRO_SERVICE_SOCKET", "/pinned.sock")
        assert socket_path(str(tmp_path)) == "/pinned.sock"


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0),
        ("4096", 4096),
        ("64k", 64 * 1024),
        ("64KB", 64 * 1024),
        ("256M", 256 * 1024 ** 2),
        ("2g", 2 * 1024 ** 3),
    ])
    def test_accepts(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "12q", "1.5G"])
    def test_rejects(self, text):
        with pytest.raises(ConfigError):
            parse_size(text)


# ----------------------------------------------------------------------
# Job board: dedup, journals, queue.
# ----------------------------------------------------------------------
class TestJobBoard:
    def test_submit_collapses_internal_duplicates(self):
        board = JobBoard()
        job = make_job()
        sub = board.submit([job, job])
        assert sub.total == 1
        assert sub.counts == {"new": 1, "deduped_inflight": 0,
                              "deduped_cached": 0}

    def test_second_submission_joins_inflight_record(self):
        board = JobBoard()
        job = make_job()
        first = board.submit([job])
        second = board.submit([job])
        assert second.counts["deduped_inflight"] == 1
        assert second.counts["new"] == 0
        record = board.records[job_key(job)]
        assert record.subscribers == {first.sid, second.sid}
        # Only the first submission queued a batch.
        assert board.next_batch() == [job]

    def test_done_record_answers_from_memory(self):
        board = JobBoard()
        job = make_job()
        board.submit([job])
        board.on_event(JobEvent(job, "done", 1, 1, 0.5, None),
                       result={"cycles": 123})
        sub = board.submit([job])
        assert sub.counts["deduped_cached"] == 1
        assert sub.complete
        statuses = [f["status"] for f in sub.events
                    if f["event"] == "job"]
        assert statuses == ["hit"]
        # Journal frames hold the record's encoded result text.
        assert decode_frame(encode_frame(sub.events[0]))["result"] \
            == {"cycles": 123}
        assert sub.events[-1]["event"] == "complete"
        assert sub.hits == 1 and sub.simulated == 0

    def test_failed_record_requeues_on_resubmit(self):
        board = JobBoard()
        job = make_job()
        board.submit([job])
        board.on_event(JobEvent(job, "fail", 1, 1, 0.1, "boom"))
        retry = board.submit([job])
        assert retry.counts["new"] == 1
        assert board.records[job_key(job)].state == "pending"

    def test_journal_fans_out_to_every_subscriber(self):
        board = JobBoard()
        job = make_job()
        a = board.submit([job])
        b = board.submit([job])
        board.on_event(JobEvent(job, "start", 1, 1, None, None))
        board.on_event(JobEvent(job, "done", 1, 1, 0.2, None),
                       result={"cycles": 9})
        for sub in (a, b):
            statuses = [f["status"] for f in sub.events
                        if f["event"] == "job"]
            assert statuses == ["start", "done"]
            assert sub.complete

    def test_events_since_replays_and_finishes(self):
        board = JobBoard()
        job = make_job()
        sub = board.submit([job])
        board.on_event(JobEvent(job, "done", 1, 1, 0.2, None),
                       result={"cycles": 9})
        frames, cursor, finished = board.events_since(sub.sid, 0)
        assert finished and cursor == len(sub.events)
        assert frames == sub.events
        again, cursor2, finished2 = board.events_since(sub.sid, cursor)
        assert again == [] and finished2

    def test_events_since_unknown_id(self):
        with pytest.raises(KeyError):
            JobBoard().events_since("S9999", 0)

    def test_priority_orders_batches(self):
        board = JobBoard()
        low = make_job(workload="astar")
        high = make_job(workload="mcf")
        board.submit([low], priority=0)
        board.submit([high], priority=5)
        assert board.next_batch() == [high]
        assert board.next_batch() == [low]

    def test_next_batch_returns_none_after_close(self):
        board = JobBoard()
        board.close()
        assert board.closed
        assert board.next_batch() is None

    def test_summary_shape(self):
        board = JobBoard()
        board.submit([make_job()])
        summary = board.summary()
        assert summary["records"]["pending"] == 1
        assert summary["queued_batches"] == 1
        row = summary["submissions"][0]
        assert row["total"] == 1 and not row["complete"]


# ----------------------------------------------------------------------
# Board durability: WAL log-then-apply, restore, backpressure.
# ----------------------------------------------------------------------
class TestBoardDurability:
    def _wal(self, tmp_path):
        return wal_mod.WriteAheadLog(str(tmp_path / "wal"))

    def test_overload_rejected_atomically(self, tmp_path):
        log = self._wal(tmp_path)
        board = JobBoard(wal=log, max_pending=1)
        jobs = [make_job(workload="astar"), make_job(workload="mcf")]
        with pytest.raises(ServiceOverloaded):
            board.submit(jobs)
        # Nothing logged, nothing registered, no sid burned.
        assert log.counters()["appends"] == 0
        assert board.records == {} and board.submissions == {}
        assert board.submit([jobs[0]]).sid == "S0001"

    def test_overload_ignores_deduped_jobs(self):
        board = JobBoard(max_pending=1)
        job = make_job()
        board.submit([job])
        # Joining the in-flight record costs no queue depth...
        assert board.submit([job]).counts["deduped_inflight"] == 1
        board.on_event(JobEvent(job, "done", 1, 1, 0.1, None),
                       result={"cycles": 1})
        # ... and neither does a memory-tier answer.
        assert board.submit([job]).counts["deduped_cached"] == 1

    def test_zero_max_pending_is_unbounded(self):
        board = JobBoard(max_pending=0)
        board.submit([make_job(workload=w)
                      for w in ("astar", "mcf", "milc")])

    def test_negative_max_pending_rejected(self):
        with pytest.raises(ConfigError):
            JobBoard(max_pending=-1)

    def test_restore_rebuilds_identical_journals(self, tmp_path):
        log = self._wal(tmp_path)
        board = JobBoard(wal=log)
        a, b = make_job(workload="astar"), make_job(workload="mcf")
        sub1 = board.submit([a, b], priority=2)
        board.on_event(JobEvent(a, "start", 1, 2, None, None))
        board.on_event(JobEvent(a, "done", 1, 2, 0.4, None),
                       result={"cycles": 11})
        sub2 = board.submit([a])  # answered from the memory tier
        assert sub2.counts["deduped_cached"] == 1
        log.close()

        results = {job_key(a): {"cycles": 11}}
        records, torn = wal_mod.replay_segments(str(tmp_path / "wal"))
        assert torn == 0
        fresh = JobBoard()
        stats = fresh.restore(records, results.get)
        assert stats["submissions"] == 2 and stats["sealed"] == 0
        # Journals are bit-identical — the contract watchers rely on.
        assert fresh.submissions[sub1.sid].events == sub1.events
        assert fresh.submissions[sub2.sid].events == sub2.events
        # The unfinished job is still runnable after the crash.
        assert fresh.records[job_key(b)].state == "pending"
        assert fresh.next_batch() == [b]
        # The sid sequence continues where the dead daemon left off.
        assert fresh.submit([make_job(workload="milc")]).sid == "S0003"

    def test_restore_requeues_when_result_vanished(self, tmp_path):
        log = self._wal(tmp_path)
        board = JobBoard(wal=log)
        job = make_job()
        sub = board.submit([job])
        board.on_event(JobEvent(job, "done", 1, 1, 0.1, None),
                       result={"cycles": 5})
        assert board.submissions[sub.sid].complete
        log.close()
        records, _ = wal_mod.replay_segments(str(tmp_path / "wal"))
        fresh = JobBoard()
        fresh.restore(records, lambda key: None)  # cache evicted
        # The terminal event could not be honoured: the job is pending
        # again and its submission stays open until the rerun.
        assert fresh.records[job_key(job)].state == "pending"
        assert not fresh.submissions[sub.sid].complete
        assert fresh.next_batch() == [job]

    def test_seal_marks_clean_shutdown(self, tmp_path):
        log = self._wal(tmp_path)
        board = JobBoard(wal=log)
        board.submit([make_job()])
        log.seal()
        log.close()
        records, _ = wal_mod.replay_segments(str(tmp_path / "wal"))
        assert JobBoard().restore(records,
                                  lambda key: None)["sealed"] == 1

    def test_records_after_seal_restore_unsealed(self, tmp_path):
        # Only a seal as the *last* record means a clean stop: a daemon
        # that restarted, logged more work and then crashed is unsealed.
        log = self._wal(tmp_path)
        board = JobBoard(wal=log)
        board.submit([make_job()])
        log.seal()
        board.submit([make_job(workload="mcf")])
        log.close()
        records, _ = wal_mod.replay_segments(str(tmp_path / "wal"))
        assert {"t": "seal"} in records
        assert JobBoard().restore(records,
                                  lambda key: None)["sealed"] == 0

    def test_snapshot_restore_roundtrip(self):
        board = JobBoard()
        job = make_job()
        sub = board.submit([job], priority=4)
        board.on_event(JobEvent(job, "done", 1, 1, 0.2, None),
                       result={"cycles": 7})
        snapshot = board.snapshot_records()
        # Snapshots never carry result payloads (they live in the
        # cache tier); restore rehydrates them.
        assert all("result" not in frame
                   for record in snapshot if record.get("t") == "sub"
                   for frame in record["frames"])
        fresh = JobBoard()
        fresh.restore(snapshot, {job_key(job): {"cycles": 7}}.get)
        assert fresh.submissions[sub.sid].events == sub.events
        assert json.loads(fresh.records[job_key(job)].result) \
            == {"cycles": 7}

    def test_snapshot_restore_requeues_evicted_result(self):
        board = JobBoard()
        job = make_job()
        board.submit([job])
        assert board.next_batch() == [job]  # scheduler claimed it
        board.on_event(JobEvent(job, "done", 1, 1, 0.2, None),
                       result={"cycles": 7})
        fresh = JobBoard()
        stats = fresh.restore(board.snapshot_records(),
                              lambda key: None)
        # A done record whose cached result was evicted is downgraded
        # and requeued (it was no longer in any queued batch).
        assert stats["requeued"] == 1
        assert fresh.records[job_key(job)].state == "pending"
        assert fresh.next_batch() == [job]

    def test_restore_accepts_logs_with_a_backend_field(self):
        # Logs written while jobs carried a ``backend`` field store it
        # in both incremental submits and snapshot records; a daemon
        # must still start over such a log.
        done, queued = make_job(workload="astar"), make_job(workload="mcf")
        old_wire = [dict(job_to_wire(job), backend="scalar")
                    for job in (done, queued)]
        records = [
            {"t": "seq", "value": 1},
            {"t": "rec", "key": job_key(done), "job": old_wire[0],
             "state": "done", "from_cache": False, "error": None,
             "subscribers": ["S0001"]},
            {"t": "submit", "sid": "S0002", "priority": 0,
             "jobs": [old_wire[1]]},
        ]
        board = JobBoard()
        stats = board.restore(records, {job_key(done): {"cycles": 3}}.get)
        assert stats["submissions"] == 1
        assert board.records[job_key(done)].job == done
        assert json.loads(board.records[job_key(done)].result) \
            == {"cycles": 3}
        assert board.records[job_key(queued)].job == queued
        assert board.next_batch() == [queued]

    def test_restore_skips_unknown_record_types(self):
        board = JobBoard()
        stats = board.restore([{"t": "from-the-future", "x": 1}],
                              lambda key: None)
        assert stats["records"] == 1 and stats["submissions"] == 0


# ----------------------------------------------------------------------
# Wire compatibility of held results.
# ----------------------------------------------------------------------
class TestWireCompatibility:
    """A completed record holds its result as encoded text; every frame
    carrying it must go on the wire exactly as the same frame built
    with the result dict did before."""

    #: Floats, nesting, nulls, key order and non-ASCII all exercise the
    #: canonical encoding.
    RESULT = {"cycles": 123, "ipc": 1.2345678901234567,
              "stats": {"zeta": [1, 2.5, None], "alpha": "caf\u00e9\n"},
              "events": None}

    @staticmethod
    def assert_wire_identical(frame, result):
        """``frame`` encodes byte for byte as (and decodes to) the
        frame with ``result`` as a dict in its ``result`` field."""
        expected = dict(frame)
        if result is not None:
            expected["result"] = result
        encoded = encode_frame(frame)
        assert encoded == json.dumps(
            expected, separators=(",", ":"),
            sort_keys=True).encode("utf-8") + b"\n"
        assert decode_frame(encoded) == expected

    def result_frames(self, frames):
        return [frame for frame in frames if "result" in frame]

    def test_live_done_and_hit_frames(self):
        board = JobBoard()
        simulated, cached = make_job(), make_job(workload="mcf")
        first = board.submit([simulated, cached])
        board.on_event(JobEvent(simulated, "start", 0, 2, None, None))
        board.on_event(JobEvent(simulated, "done", 1, 2, 0.5, None),
                       result=self.RESULT)
        board.on_event(JobEvent(cached, "hit", 2, 2, None, None),
                       result=self.RESULT)
        memory_hit = board.submit([simulated])
        frames = first.events + memory_hit.events
        carrying = self.result_frames(frames)
        assert [frame["status"] for frame in carrying] == \
            ["done", "hit", "hit"]
        for frame in frames:
            self.assert_wire_identical(
                frame, self.RESULT if "result" in frame else None)

    def test_frames_rehydrated_by_restore(self, tmp_path):
        log = wal_mod.WriteAheadLog(str(tmp_path / "wal"), fsync=False)
        board = JobBoard(wal=log)
        job = make_job()
        sub = board.submit([job])
        board.on_event(JobEvent(job, "done", 1, 1, 0.5, None),
                       result=self.RESULT)
        log.close()
        load = {job_key(job): self.RESULT}.get
        # Incremental replay (``event`` records) and snapshot replay
        # (``rec``/``sub`` records) both re-encode the cached result.
        records, _ = wal_mod.replay_segments(str(tmp_path / "wal"))
        for replayed in (records, board.snapshot_records()):
            fresh = JobBoard()
            fresh.restore(replayed, load)
            frames = fresh.submissions[sub.sid].events
            assert len(self.result_frames(frames)) == 1
            for frame in frames:
                self.assert_wire_identical(
                    frame, self.RESULT if "result" in frame else None)

    def test_frames_without_a_result(self):
        for frame in ({"event": "accepted", "id": "S0001", "total": 2},
                      {"event": "job", "status": "fail", "id": "S0001",
                       "error": "JobTimeout", "label": "a/b/c"},
                      {"event": "pong", "v": 1, "uptime": 0.25}):
            self.assert_wire_identical(frame, None)


# ----------------------------------------------------------------------
# Daemon round-trips over a real unix socket (in-process daemon).
# ----------------------------------------------------------------------
@pytest.fixture
def daemon(tmp_path):
    """A live ServiceDaemon on a tmp socket, torn down after the test."""
    sock = str(tmp_path / "s.sock")
    cache = ResultCache(str(tmp_path / "cache"))
    server = ServiceDaemon(sock, cache=cache, jobs=1)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _wait_for_daemon(sock)
    yield server
    server.stop()
    thread.join(timeout=30)


def _wait_for_daemon(sock, timeout=30.0):
    deadline = time.time() + timeout
    while True:
        try:
            return client.ping(sock, timeout=2.0)
        except ServiceUnavailable:
            if time.time() > deadline:
                raise
            time.sleep(0.05)


class TestDaemon:
    def test_ping(self, daemon):
        pong = client.ping(daemon.socket_path)
        assert pong["event"] == "pong"
        assert pong["pid"] == os.getpid()

    def test_submit_simulates_then_resubmit_hits(self, daemon):
        jobs = [make_job(spec=None), make_job(spec="fvp")]
        first = client.collect_results(
            client.submit(daemon.socket_path, jobs))
        assert first["complete"]["simulated"] == 2
        assert first["complete"]["failed"] == 0
        assert set(first["results"]) == {job_key(j) for j in jobs}

        second = client.collect_results(
            client.submit(daemon.socket_path, jobs))
        assert second["complete"]["hits"] == 2
        assert second["complete"]["simulated"] == 0
        assert second["results"] == first["results"]

    def test_streamed_results_match_serial_execution(self, daemon):
        job = make_job(spec="lvp")
        out = client.collect_results(
            client.submit(daemon.socket_path, [job]))
        assert out["results"][job_key(job)] == wire_result(job)

    def test_watch_replays_identical_journal(self, daemon):
        jobs = [make_job(spec=None)]
        live = list(client.submit(daemon.socket_path, jobs))
        sid = live[0]["id"]
        replay = list(client.watch(daemon.socket_path, sid))
        # The watch stream is the submit stream minus the accepted ack.
        assert replay == live[1:]

    def test_no_watch_returns_after_accepted(self, daemon):
        jobs = [make_job(spec=None, workload="milc")]
        frames = list(client.submit(daemon.socket_path, jobs,
                                    watch=False))
        assert len(frames) == 1 and frames[0]["event"] == "accepted"
        sid = frames[0]["id"]
        out = client.collect_results(
            client.watch(daemon.socket_path, sid))
        assert out["complete"]["failed"] == 0

    def test_jobs_summary(self, daemon):
        client.collect_results(client.submit(
            daemon.socket_path, [make_job(spec=None)]))
        summary = client.list_jobs(daemon.socket_path)
        assert summary["event"] == "jobs"
        assert summary["records"]["done"] >= 1

    def test_stats_tree_matches_service_schema(self, daemon):
        client.collect_results(client.submit(
            daemon.socket_path, [make_job(spec=None)]))
        kind_name = {"Counter": "counter", "Histogram": "histogram"}
        pairs = [(path, kind_name[type(leaf).__name__])
                 for path, leaf in daemon.stats_tree().walk()]
        assert pairs
        assert validate_paths(pairs, SERVICE_SCHEMA) == []

    def test_stats_over_the_wire(self, daemon):
        client.collect_results(client.submit(
            daemon.socket_path, [make_job(spec=None)]))
        tree = client.fetch_stats(daemon.socket_path)["tree"]
        service = tree["children"]["service"]
        assert service["children"]["submissions"]["value"] >= 1
        cache = tree["children"]["cache"]
        assert cache["children"]["stores"]["value"] >= 1
        assert cache["children"]["entries"]["value"] >= 1

    def test_protocol_errors_keep_connection_usable(self, daemon):
        with pytest.raises(ProtocolError):
            list(client.watch(daemon.socket_path, "S9999"))
        with pytest.raises(ProtocolError):
            list(client.submit(daemon.socket_path,
                               [make_job(workload="not-a-workload")]))
        with pytest.raises(ProtocolError):
            list(client.submit(daemon.socket_path,
                               [make_job(spec="not-a-predictor")]))
        with pytest.raises(ProtocolError):
            list(client.submit(daemon.socket_path,
                               [make_job(core="not-a-core")]))
        # The daemon survives every rejected request.
        assert client.ping(daemon.socket_path)["event"] == "pong"

    def test_malformed_specs_rejected_on_a_usable_connection(self,
                                                             daemon):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(5.0)
        conn.connect(daemon.socket_path)
        replies = []
        try:
            with conn.makefile("rb") as stream:
                for spec in ("nope", "fvp:epoch=x", "fvp:bogus=1",
                             "lvp:epoch=1", "fvp:epoch=400000"):
                    conn.sendall(encode_frame({
                        "v": PROTOCOL_VERSION, "op": "submit",
                        "jobs": [job_to_wire(make_job(spec=spec))]}))
                    replies.append(decode_frame(stream.readline()))
                conn.sendall(encode_frame({"v": PROTOCOL_VERSION,
                                           "op": "ping"}))
                pong = decode_frame(stream.readline())
        finally:
            conn.close()
        assert [reply["kind"] for reply in replies] == \
            ["ProtocolError"] * 5
        assert "'fvp:bogus=1'" in replies[2]["error"]
        assert "plain 'fvp'" in replies[4]["error"]
        assert pong["event"] == "pong"
        assert daemon.board.summary()["submissions"] == []

    def test_override_and_oracle_specs_are_submittable(self, daemon):
        jobs = [make_job(spec="fvp:epoch=1000"),
                make_job(spec="fvp-oracle")]
        out = client.collect_results(
            client.submit(daemon.socket_path, jobs))
        assert out["complete"]["failed"] == 0
        for job in jobs:
            assert out["results"][job_key(job)] == wire_result(job)

    def test_bad_version_rejected(self, daemon):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(5.0)
        conn.connect(daemon.socket_path)
        try:
            conn.sendall(encode_frame({"v": 99, "op": "ping"}))
            with conn.makefile("rb") as stream:
                reply = decode_frame(stream.readline())
        finally:
            conn.close()
        assert reply["event"] == "error"
        assert reply["kind"] == "ProtocolError"

    def test_second_daemon_refuses_live_socket(self, daemon, tmp_path):
        rival = ServiceDaemon(daemon.socket_path)
        with pytest.raises(ServiceError):
            rival.serve_forever()

    def test_client_reports_missing_daemon(self, tmp_path):
        with pytest.raises(ServiceUnavailable):
            client.ping(str(tmp_path / "nothing.sock"), timeout=1.0)


# ----------------------------------------------------------------------
# Daemon durability: WAL recovery, backpressure, crash evidence, timeouts.
# ----------------------------------------------------------------------
class TestDaemonDurability:
    def _start(self, tmp_path, **kwargs):
        sock = str(tmp_path / "d.sock")
        cache = ResultCache(str(tmp_path / "cache"))
        server = ServiceDaemon(sock, cache=cache, jobs=1, **kwargs)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        _wait_for_daemon(sock)
        return server, thread

    def _stop(self, server, thread):
        server.stop()
        thread.join(timeout=30)

    def test_watch_cursor_resumes_mid_journal(self, daemon):
        jobs = [make_job(spec=None), make_job(spec="fvp")]
        live = list(client.submit(daemon.socket_path, jobs))
        sid = live[0]["id"]
        full = list(client.watch(daemon.socket_path, sid))
        # A reconnecting client resumes past the frames it already
        # consumed — no duplicates, no gaps.
        resumed = list(client.watch(daemon.socket_path, sid, cursor=2))
        assert resumed == full[2:]
        assert resumed[-1]["event"] == "complete"

    def test_overloaded_submission_rejected(self, tmp_path):
        server, thread = self._start(tmp_path, max_pending=1)
        try:
            with pytest.raises(ServiceOverloaded):
                list(client.submit(server.socket_path,
                                   [make_job(workload="astar"),
                                    make_job(workload="mcf")]))
            # Within the bound the service behaves normally.
            out = client.collect_results(
                client.submit(server.socket_path,
                              [make_job(spec=None)]))
            assert out["complete"]["failed"] == 0
            tree = client.fetch_stats(server.socket_path)["tree"]
            jobs_stats = tree["children"]["service"]["children"][
                "jobs"]["children"]
            assert jobs_stats["rejected"]["value"] == 1
        finally:
            self._stop(server, thread)

    def test_serve_rejects_negative_max_pending(self, tmp_path, capsys,
                                                monkeypatch):
        from repro.cli import main

        def never(self):
            raise AssertionError("serve must not start")

        monkeypatch.setattr(ServiceDaemon, "serve_forever", never)
        code = main(["serve", "--max-pending", "-1", "--socket",
                     str(tmp_path / "x.sock"), "--no-cache"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "max_pending" in err

    def test_restart_replays_watchers_bit_identical(self, tmp_path):
        server, thread = self._start(tmp_path)
        job = make_job(spec=None)
        live = list(client.submit(server.socket_path, [job]))
        sid = live[0]["id"]
        self._stop(server, thread)

        server, thread = self._start(tmp_path)  # same cache dir + WAL
        try:
            recovery = recovery_stats(server.socket_path)
            assert recovery["sealed"] == 1
            assert recovery["records"] > 0
            # The journal a pre-crash watcher saw is replayed
            # bit-identically — result payloads included.
            replay = list(client.watch(server.socket_path, sid))
            assert replay == live[1:]
            # Dedup still holds across the restart: no resimulation.
            again = client.collect_results(
                client.submit(server.socket_path, [job]))
            assert again["complete"]["simulated"] == 0
        finally:
            self._stop(server, thread)

    def test_clean_stop_leaves_only_a_sealed_log(self, tmp_path):
        server, thread = self._start(tmp_path)
        # The scheduler is the daemon's only named background thread.
        assert {t.name for t in threading.enumerate()
                if t.name.startswith("repro-")} == {"repro-scheduler"}
        list(client.submit(server.socket_path, [make_job(spec=None)]))
        self._stop(server, thread)
        wal_root = server.wal.root
        assert all(name.startswith(wal_mod.SEGMENT_PREFIX)
                   and name.endswith(wal_mod.SEGMENT_SUFFIX)
                   for name in os.listdir(wal_root))
        records, torn = wal_mod.replay_segments(wal_root)
        assert torn == 0 and records[-1] == {"t": "seal"}

    def test_failed_compaction_at_stop_still_seals(self, tmp_path,
                                                   monkeypatch):
        server, thread = self._start(tmp_path)
        list(client.submit(server.socket_path, [make_job(spec=None)]))

        def broken(records):
            raise OSError("disk full")

        monkeypatch.setattr(server.wal, "compact", broken)
        self._stop(server, thread)
        records, torn = wal_mod.replay_segments(server.wal.root)
        # The uncompacted history stays authoritative and still ends in
        # the seal, so the next start reads a clean stop, not a crash.
        assert torn == 0 and records[-1] == {"t": "seal"}
        assert any(record["t"] == "submit" for record in records)

    def test_no_cache_disables_wal(self, tmp_path):
        sock = str(tmp_path / "nc.sock")
        server = ServiceDaemon(sock, cache=None, jobs=1)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        _wait_for_daemon(sock)
        try:
            assert server.wal is None
            out = client.collect_results(
                client.submit(sock, [make_job(spec=None)]))
            assert out["complete"]["failed"] == 0
            tree = client.fetch_stats(sock)["tree"]
            walt = tree["children"]["service"]["children"]["wal"]
            assert walt["children"]["appends"]["value"] == 0
        finally:
            self._stop(server, thread)

    def test_ping_timeout_is_service_unavailable(self, tmp_path):
        # A listener that accepts but never answers: the classic hang
        # a finite timeout must convert into a typed error.
        sock = str(tmp_path / "mute.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock)
        listener.listen(1)
        try:
            with pytest.raises(ServiceUnavailable):
                client.ping(sock, timeout=0.3)
        finally:
            listener.close()

    def test_watch_timeout_is_service_unavailable(self, tmp_path):
        sock = str(tmp_path / "mute.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(sock)
        listener.listen(1)
        try:
            with pytest.raises(ServiceUnavailable):
                list(client.watch(sock, "S0001", timeout=0.3,
                                  reconnect=0))
        finally:
            listener.close()

    def test_watch_has_finite_default_timeout(self):
        assert client.DEFAULT_WATCH_TIMEOUT is not None
        assert client.DEFAULT_SHUTDOWN_TIMEOUT is not None


# ----------------------------------------------------------------------
# Subprocess integration: concurrent clients, SIGKILL restart.
# ----------------------------------------------------------------------
def _spawn(argv, tmp_path, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    env.pop("REPRO_SERVICE_SOCKET", None)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_CACHE_BUDGET", None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def _start_daemon(tmp_path, sock, cache_dir, extra=()):
    proc = _spawn(["serve", "--socket", sock, "--cache-dir", cache_dir,
                   "--jobs", "2", *extra], tmp_path)
    try:
        _wait_for_daemon(sock)
    except ServiceUnavailable:
        out, err = proc.communicate(timeout=10)
        raise AssertionError(
            f"daemon never came up:\n{out.decode()}\n{err.decode()}")
    return proc


SWEEP_A = ["submit", "baseline", "fvp", "--workloads", "astar", "mcf"]
SWEEP_B = ["submit", "fvp", "lvp", "--workloads", "mcf", "milc"]


def _sweep_jobs(predictors, workloads):
    return [make_job(workload=w, spec=None if p == "baseline" else p)
            for p in predictors for w in workloads]


class TestSubprocessClients:
    def test_concurrent_overlapping_sweeps(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        cache_dir = str(tmp_path / "cache")
        shape = ["--length", str(LENGTH), "--warmup", str(WARMUP),
                 "--socket", sock]
        server = _start_daemon(tmp_path, sock, cache_dir)
        try:
            a = _spawn(SWEEP_A + shape + ["--output", "a.json"],
                       tmp_path)
            b = _spawn(SWEEP_B + shape + ["--output", "b.json"],
                       tmp_path)
            for proc in (a, b):
                out, err = proc.communicate(timeout=300)
                assert proc.returncode == 0, err.decode()

            with open(tmp_path / "a.json", encoding="utf-8") as fh:
                got_a = json.load(fh)
            with open(tmp_path / "b.json", encoding="utf-8") as fh:
                got_b = json.load(fh)

            jobs_a = _sweep_jobs(["baseline", "fvp"], ["astar", "mcf"])
            jobs_b = _sweep_jobs(["fvp", "lvp"], ["mcf", "milc"])
            union = {job_key(j): j for j in jobs_a + jobs_b}
            overlap = {job_key(j) for j in jobs_a} \
                & {job_key(j) for j in jobs_b}
            assert len(overlap) == 1  # fvp on mcf

            # Each client saw its own full sweep; the union simulated
            # exactly once per distinct job.
            assert set(got_a["results"]) == {job_key(j) for j in jobs_a}
            assert set(got_b["results"]) == {job_key(j) for j in jobs_b}
            assert got_a["failures"] == {} and got_b["failures"] == {}
            simulated = got_a["complete"]["simulated"] \
                + got_b["complete"]["simulated"]
            hits = got_a["complete"]["hits"] + got_b["complete"]["hits"]
            assert simulated + hits == len(jobs_a) + len(jobs_b)

            # The daemon's own accounting proves the overlap ran only
            # once: 7 distinct records entered the queue, the eighth
            # submission slot deduped, and the tier stored one result
            # per distinct job.
            tree = client.fetch_stats(sock)["tree"]
            jobs_stats = tree["children"]["service"]["children"][
                "jobs"]["children"]
            assert jobs_stats["accepted"]["value"] == len(union)
            assert jobs_stats["deduped-inflight"]["value"] \
                + jobs_stats["deduped-cached"]["value"] == 1
            cache_stats = tree["children"]["cache"]["children"]
            assert cache_stats["stores"]["value"] == len(union)

            # The overlapping job streamed byte-identical results to
            # both clients.
            for key in overlap:
                assert got_a["results"][key] == got_b["results"][key]

            # Resubmitting the union is answered entirely from the
            # tier: 100% hits, zero new simulations.
            out = client.collect_results(
                client.submit(sock, list(union.values())))
            assert out["complete"]["hits"] == len(union)
            assert out["complete"]["simulated"] == 0

            # Streamed results are bit-identical to serial execution
            # of the union (the `repro sweep` path runs execute_job
            # for the same Job tuples).
            for key, job in union.items():
                assert out["results"][key] == wire_result(job)
        finally:
            _stop_daemon(server, sock)

    def test_sigkill_restart_consistent_cache(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        cache_dir = str(tmp_path / "cache")
        jobs = [make_job(spec=None), make_job(spec="fvp")]
        server = _start_daemon(tmp_path, sock, cache_dir)
        try:
            first = client.collect_results(client.submit(sock, jobs))
            assert first["complete"]["simulated"] == 2
        finally:
            if server.poll() is None:
                server.kill()
        server.wait(timeout=30)

        # Plant a quarantine ledger entry the restart must preserve.
        bad = os.path.join(cache_dir, "deadbeef.json.bad")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("{corrupt")

        # SIGKILL leaves the socket file behind; the next daemon
        # reclaims it.
        assert os.path.exists(sock)
        server = _start_daemon(tmp_path, sock, cache_dir)
        try:
            # No torn entries: every current entry parses as JSON.
            cache = ResultCache(cache_dir)
            assert len(cache.entries()) == 2
            for key in cache.entries():
                with open(cache.path(key), encoding="utf-8") as fh:
                    json.load(fh)
            # Resubmission is served from the surviving cache tier.
            again = client.collect_results(client.submit(sock, jobs))
            assert again["complete"]["hits"] == 2
            assert again["complete"]["simulated"] == 0
            assert again["results"] == first["results"]
            # The quarantine ledger is intact.
            assert os.path.exists(bad)
        finally:
            _stop_daemon(server, sock)

    def test_serve_stop_cli(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        server = _start_daemon(tmp_path, sock, str(tmp_path / "cache"))
        stop = _spawn(["serve", "--stop", "--socket", sock], tmp_path)
        out, err = stop.communicate(timeout=30)
        assert stop.returncode == 0, err.decode()
        assert "stopped" in out.decode()
        server.wait(timeout=30)
        assert server.returncode == 0
        assert not os.path.exists(sock)


def _stop_daemon(proc, sock):
    if proc.poll() is not None:
        return
    try:
        client.shutdown(sock, timeout=5.0)
        proc.wait(timeout=30)
    except (ServiceUnavailable, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait(timeout=30)


# ----------------------------------------------------------------------
# Cache tier: eviction budget.
# ----------------------------------------------------------------------
def _fill_cache(cache, count):
    """Store ``count`` distinct real results with increasing mtimes."""
    keys = []
    for index, workload in enumerate(
            ["astar", "mcf", "milc", "hadoop"][:count]):
        job = make_job(workload=workload, spec=None, length=2000,
                       warmup=500)
        key = job_key(job)
        cache.put(key, execute_job(job))
        # Deterministic write order without sleeping between stores.
        # A budgeted cache may already have evicted the entry.
        age = (count - index) * 100.0
        stamp = time.time() - age
        try:
            os.utime(cache.path(key), (stamp, stamp))
        except FileNotFoundError:
            pass
        keys.append(key)
    return keys


class TestCacheEviction:
    def test_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        keys = _fill_cache(cache, 3)
        sizes = {key: os.path.getsize(cache.path(key)) for key in keys}
        # A budget that fits everything except the oldest entry.
        removed = cache.enforce_budget(sum(sizes.values())
                                       - sizes[keys[0]])
        assert removed == 1
        assert cache.evicted == 1
        survivors = set(cache.entries())
        assert keys[0] not in survivors  # oldest mtime went first
        assert set(keys[1:]) <= survivors

    def test_get_hit_does_not_protect_oldest(self, tmp_path):
        # Eviction is oldest-written first, not least recently used: a
        # get() never touches mtime, so a hit does not save an entry.
        cache = ResultCache(str(tmp_path))
        keys = _fill_cache(cache, 3)
        sizes = {key: os.path.getsize(cache.path(key)) for key in keys}
        mtime = os.path.getmtime(cache.path(keys[0]))
        assert cache.get(keys[0]) is not None
        assert os.path.getmtime(cache.path(keys[0])) == mtime
        assert cache.enforce_budget(sum(sizes.values())
                                    - sizes[keys[0]]) == 1
        assert keys[0] not in cache.entries()

    def test_budget_never_touches_quarantine_or_stats(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _fill_cache(cache, 2)
        cache.flush_stats(2)
        bad = os.path.join(str(tmp_path), "feedface.json.bad")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("{torn")
        cache.enforce_budget(1)  # evict everything evictable
        assert cache.entries() == []
        assert os.path.exists(bad)
        assert os.path.exists(os.path.join(str(tmp_path), "stats.json"))

    def test_put_enforces_instance_budget(self, tmp_path):
        probe = ResultCache(str(tmp_path))
        keys = _fill_cache(probe, 1)
        entry_size = os.path.getsize(probe.path(keys[0]))
        probe.clear()

        cache = ResultCache(str(tmp_path), budget_bytes=entry_size * 2)
        _fill_cache(cache, 3)
        assert len(cache.entries()) <= 2
        assert cache.evicted >= 1

    def test_env_budget_and_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "64k")
        assert ResultCache(str(tmp_path)).budget_bytes == 64 * 1024
        monkeypatch.delenv("REPRO_CACHE_BUDGET")
        with pytest.raises(ConfigError):
            ResultCache(str(tmp_path), budget_bytes=-1)

    def test_zero_budget_is_unbounded(self, tmp_path):
        cache = ResultCache(str(tmp_path), budget_bytes=0)
        _fill_cache(cache, 2)
        assert cache.enforce_budget() == 0
        assert len(cache.entries()) == 2

    def test_evicted_counter_persists(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _fill_cache(cache, 2)
        cache.enforce_budget(1)
        cache.flush_stats(0)
        assert ResultCache(str(tmp_path)).load_stats()["evicted"] == 2


class TestCacheCLI:
    def test_cache_stats_reports_budget_and_evictions(self, tmp_path,
                                                      capsys,
                                                      monkeypatch):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        cache = ResultCache(cache_dir)
        _fill_cache(cache, 2)
        cache.enforce_budget(1)
        cache.flush_stats(2)
        monkeypatch.setenv("REPRO_CACHE_BUDGET", "64k")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "2 evicted" in out
        assert "eviction budget: 65536 bytes" in out

    def test_cache_evict_command(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        _fill_cache(ResultCache(cache_dir), 2)
        assert main(["cache", "evict", "--budget", "1",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "evicted 2" in out
        assert ResultCache(cache_dir).entries() == []

    def test_cache_evict_requires_budget(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "evict",
                     "--cache-dir", str(tmp_path)]) == 2

    def test_cache_evict_rejects_bad_budget(self, tmp_path):
        from repro.cli import main

        assert main(["cache", "evict", "--budget", "lots",
                     "--cache-dir", str(tmp_path)]) == 2


# ----------------------------------------------------------------------
# Doctor hygiene.
# ----------------------------------------------------------------------
class TestDoctorHygiene:
    def _doctor(self, capsys, *argv):
        from repro.cli import main

        code = main(["doctor", *argv])
        return code, capsys.readouterr().out

    def test_clean_cache_reports_clean(self, tmp_path, capsys):
        code, out = self._doctor(capsys, "--cache-dir", str(tmp_path))
        assert code == 0
        assert "cache hygiene: clean" in out

    def test_findings_are_advisory_and_fixable(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        # The sweep-checkpoint directory an older version left behind
        # (a manifest and its journal)...
        legacy = os.path.join(root, "campaigns")
        os.makedirs(legacy)
        with open(os.path.join(legacy, "0123456789ab.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"id": "0123456789ab", "completed": False,
                       "meta": {"predictors": ["fvp"]}}, fh)
        with open(os.path.join(legacy, "0123456789ab.journal"), "w",
                  encoding="utf-8") as fh:
            fh.write("{}\n")
        # ... an orphaned quarantine file ...
        bad = os.path.join(root, "cafef00d.json.bad")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("{torn")
        # ... and a dead service socket.
        sock = os.path.join(root, "service.sock")
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.bind(sock)
        probe.close()

        code, out = self._doctor(capsys, "--cache-dir", root)
        assert code == 0  # advisory: hygiene never fails doctor
        assert "cache hygiene: 3 finding(s)" in out
        assert out.count("legacy sweep-checkpoint directory") == 1
        assert "quarantined cache entry" in out
        assert "dead service socket" in out

        code, out = self._doctor(capsys, "--cache-dir", root, "--fix")
        assert code == 0
        assert f"removed legacy sweep-checkpoint directory: {legacy}" in out
        assert not os.path.exists(legacy)
        assert not os.path.exists(bad)
        assert not os.path.exists(sock)

        code, out = self._doctor(capsys, "--cache-dir", root)
        assert "cache hygiene: clean" in out

    def test_live_daemon_reported_ok(self, daemon, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_SOCKET", daemon.socket_path)
        code, out = self._doctor(
            capsys, "--cache-dir", str(tmp_path / "cache"))
        assert "service daemon live" in out
        assert "dead service socket" not in out

    def test_wal_debris_findings_and_fix(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        wal_root = os.path.join(root, wal_mod.WAL_DIRNAME)
        os.makedirs(wal_root)
        # An interrupted compaction temporary...
        orphan = os.path.join(wal_root, "segment-000002.wal.tmp")
        with open(orphan, "w", encoding="utf-8") as fh:
            fh.write("partial")
        # ... a hopeless segment (zero decodable records) ...
        corrupt = os.path.join(wal_root, "segment-000001.wal")
        with open(corrupt, "w", encoding="utf-8") as fh:
            fh.write("junk\n")
        # ... and an intact segment holding live queue state.
        intact = os.path.join(wal_root, "segment-000003.wal")
        with open(intact, "wb") as fh:
            fh.write(wal_mod.encode_record({"t": "seal"}))

        code, out = self._doctor(capsys, "--cache-dir", root)
        assert code == 0  # advisory
        assert "orphaned WAL temporary" in out
        assert "corrupt WAL segment" in out
        # Replay stops at the hopeless first segment, so the next start
        # would recover nothing from it: the log reads as unsealed.
        assert "unsealed WAL: 0 trusted record(s), 1 torn" in out

        code, out = self._doctor(capsys, "--cache-dir", root, "--fix")
        assert code == 0
        assert not os.path.exists(orphan)
        assert not os.path.exists(corrupt)
        # The recoverable segment is never touched.
        assert os.path.exists(intact)

        code, out = self._doctor(capsys, "--cache-dir", root)
        assert "cache hygiene: clean" in out
        assert "unsealed WAL" not in out

    def test_unsealed_wal_reported_never_removed(self, tmp_path,
                                                 capsys):
        root = str(tmp_path / "cache")
        log = wal_mod.WriteAheadLog(
            os.path.join(root, wal_mod.WAL_DIRNAME))
        JobBoard(wal=log).submit([make_job()])  # then the daemon died
        log.close()
        segments = log.segment_paths()
        for argv in ((), ("--fix",)):
            code, out = self._doctor(capsys, "--cache-dir", root, *argv)
            assert code == 0  # advisory
            assert ("unsealed WAL: 1 trusted record(s), 0 torn; the "
                    "next repro serve recovers it") in out
        assert log.segment_paths() == segments
        assert wal_mod.replay_segments(log.root)[0][-1]["t"] == "submit"
        log.seal()  # a clean stop ends the log in a seal
        log.close()
        code, out = self._doctor(capsys, "--cache-dir", root)
        assert "unsealed WAL" not in out

    @staticmethod
    def _fake_daemon(monkeypatch, root, busy, age, pending):
        """A socket path whose ``jobs``/``stats`` answers are canned."""
        from repro.telemetry.stats import StatGroup

        monkeypatch.delenv("REPRO_SERVICE_SOCKET", raising=False)
        os.makedirs(root)
        open(socket_path(root), "w").close()
        tree = StatGroup("daemon")
        scheduler = tree.group("service").group("scheduler")
        scheduler.counter("busy", value=busy)
        scheduler.counter("activity-age", value=age)
        summary = {"event": "jobs", "queued_batches": int(pending > 0),
                   "records": {"pending": pending, "running": 0,
                               "done": 0, "failed": 0},
                   "submissions": []}
        monkeypatch.setattr(client, "list_jobs",
                            lambda path, timeout=5.0: summary)
        monkeypatch.setattr(
            client, "fetch_stats",
            lambda path, timeout=5.0: {"event": "stats",
                                       "tree": tree.to_dict()})

    @pytest.mark.parametrize("busy,age,pending,wedged", [
        (0, 900.0, 2, True),   # scheduler thread dead, work queued
        (1, 900.0, 2, True),   # a batch stuck in the engine
        (1, 5.0, 2, False),    # busy and making progress
        (0, 900.0, 0, False),  # idle with nothing to do
    ])
    def test_doctor_and_jobs_share_the_wedge_verdict(
            self, tmp_path, capsys, monkeypatch, busy, age, pending,
            wedged):
        from repro.cli import main

        root = str(tmp_path / "cache")
        self._fake_daemon(monkeypatch, root, busy, age, pending)
        code, out = self._doctor(capsys, "--cache-dir", root)
        assert code == 0
        assert "service daemon live" in out
        verdicts = [line.strip() for line in out.splitlines()
                    if line.strip().startswith("scheduler:")]
        assert len(verdicts) == 1
        assert ("WEDGED?" in verdicts[0]) == wedged
        assert main(["jobs", "--stats", "--cache-dir", root]) == 0
        assert verdicts[0] in capsys.readouterr().out.splitlines()


# ----------------------------------------------------------------------
# CLI parser surface.
# ----------------------------------------------------------------------
class TestServiceParser:
    def test_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/x.sock", "--cache-budget",
             "256M", "--jobs", "4"])
        assert args.socket == "/tmp/x.sock"
        assert args.cache_budget == "256M"
        assert args.jobs == 4
        assert build_parser().parse_args(["serve", "--stop"]).stop

    def test_serve_max_pending_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--max-pending", "64"])
        assert args.max_pending == 64
        assert build_parser().parse_args(["serve"]).max_pending == 0

    def test_submit_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["submit", "fvp", "baseline", "--workloads", "astar",
             "mcf", "--priority", "3", "--no-watch"])
        assert args.predictors == ["fvp", "baseline"]
        assert args.workloads == ["astar", "mcf"]
        assert args.priority == 3
        assert args.no_watch

    def test_submit_requires_workloads(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "fvp"])

    def test_submit_rejects_unknown_workload(self, capsys):
        from repro.cli import main

        assert main(["submit", "fvp", "--workloads",
                     "not-a-workload"]) == 2

    def test_watch_and_jobs_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["watch", "S0001"])
        assert args.id == "S0001"
        args = build_parser().parse_args(["jobs", "--stats"])
        assert args.stats

    def test_doctor_hygiene_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["doctor", "--fix"]).fix
        doctor = parser._subparsers._group_actions[0].choices["doctor"]
        assert set(doctor._option_string_actions) == {
            "-h", "--help", "--cache-dir", "--fix"}

    def test_submit_against_missing_daemon_fails_cleanly(self, tmp_path,
                                                         capsys):
        from repro.cli import main

        assert main(["submit", "fvp", "--workloads", "astar",
                     "--socket", str(tmp_path / "no.sock")]) == 1
        assert "repro serve" in capsys.readouterr().err
