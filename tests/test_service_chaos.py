"""Service-layer chaos harness: the deterministic recovery matrix.

Real ``repro serve`` daemons are spawned in subprocesses and killed at
injected fault points — SIGKILL between WAL appends (``wal-crash``),
appends torn by the crash itself (``wal-torn``), wire frames severed
mid-write (``frame-drop``), a slow-loris client — then restarted.  The
assertions are the PR's acceptance criteria (docs/SERVICE.md
§Durability): every pending/in-flight job completes **bit-identical**
to uninterrupted serial execution, watchers resume from their journal
cursors, graceful SIGTERM drains cleanly, and one stuck client cannot
wedge the daemon.  The CI ``chaos-smoke`` job runs exactly this file.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceUnavailable
from repro.experiments.campaign import ResultCache, job_key
from repro.service import client
from repro.service import wal as wal_mod
from repro.service.daemon import ServiceDaemon
from repro.testing import faults

from tests.test_service import (
    _stop_daemon,
    _wait_for_daemon,
    make_job,
    recovery_stats,
    wire_result,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spawn(argv, tmp_path, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    for name in ("REPRO_SERVICE_SOCKET", "REPRO_CACHE_DIR",
                 faults.FAULTS_ENV):
        env.pop(name, None)
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-m", "repro"] + argv,
        cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _serve(tmp_path, sock, cache_dir, fault_plan=None, jobs=2):
    """A ``repro serve`` subprocess, optionally with a fault plan."""
    extra_env = {}
    if fault_plan:
        extra_env[faults.FAULTS_ENV] = faults.encode(fault_plan)
    proc = _spawn(["serve", "--socket", sock, "--cache-dir", cache_dir,
                   "--jobs", str(jobs)], tmp_path, extra_env)
    try:
        _wait_for_daemon(sock)
    except ServiceUnavailable:
        out, err = proc.communicate(timeout=10)
        raise AssertionError(
            f"daemon never came up:\n{out.decode()}\n{err.decode()}")
    return proc


def _wal_root(cache_dir):
    return os.path.join(cache_dir, wal_mod.WAL_DIRNAME)


def _last_record(cache_dir):
    """The WAL's last trusted record (``None`` for an empty log)."""
    records, _ = wal_mod.replay_segments(_wal_root(cache_dir))
    return records[-1] if records else None


def _reference(jobs):
    """Uninterrupted serial execution — the bit-identity baseline."""
    return {job_key(job): wire_result(job) for job in jobs}


#: The recovery matrix: where in the journal the SIGKILL lands, and
#: which execution path the daemon is on.  ``start`` events exist only
#: on the serial path (``--jobs 1``); the pool path journals straight
#: to ``done``/``fail`` — the matrix covers both.  The ``event start
#: .../fvp`` point fires on the *second* job, after the first has
#: completed and persisted (a mid-campaign kill); the ``event done``
#: points lose a completion record.  Every variant must requeue the
#: lost suffix and answer bit-identically after restart.
MATRIX = [
    pytest.param(
        faults.FaultSpec(kind="wal-crash",
                         match="event start astar/skylake/fvp",
                         times=1),
        1, id="wal-crash-mid-campaign-serial"),
    pytest.param(
        faults.FaultSpec(kind="wal-crash", match="event done",
                         times=1),
        2, id="wal-crash-first-done-pool"),
    pytest.param(
        faults.FaultSpec(kind="wal-torn", match="event done", times=1),
        2, id="wal-torn-first-done-pool"),
]


class TestRecoveryMatrix:
    @pytest.mark.parametrize("spec,serve_jobs", MATRIX)
    def test_sigkill_at_fault_point_recovers_bit_identical(
            self, tmp_path, spec, serve_jobs):
        sock = str(tmp_path / "s.sock")
        cache_dir = str(tmp_path / "cache")
        jobs = [make_job(spec=None), make_job(spec="fvp")]

        server = _serve(tmp_path, sock, cache_dir, [spec],
                        jobs=serve_jobs)
        try:
            frames = list(client.submit(sock, jobs, watch=False))
            sid = frames[0]["id"]
            # The daemon dies hard at the injected fault point.
            server.communicate(timeout=240)
            assert server.returncode == faults.CRASH_EXIT_CODE
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)

        # SIGKILL left the socket file behind and the log unsealed;
        # restart reclaims the socket, replays the WAL, and requeues
        # the lost work.
        assert os.path.exists(sock)
        assert _last_record(cache_dir) not in (None, {"t": "seal"})
        server = _serve(tmp_path, sock, cache_dir)
        try:
            result = client.collect_results(
                client.watch(sock, sid, timeout=240))
            assert result["complete"]["failed"] == 0
            assert result["complete"]["total"] == len(jobs)
            # Bit-identical to an uninterrupted serial run.
            assert result["results"] == _reference(jobs)
            recovery = recovery_stats(sock)
            assert recovery["records"] >= 1
            assert recovery["sealed"] == 0  # it was a crash
        finally:
            _stop_daemon(server, sock)

    def test_wal_crash_during_submit_never_acknowledges(self, tmp_path):
        """A kill during the submit append is before the accepted
        frame: the client gets a typed failure, never a half-taken
        submission; the restart serves the resubmission in full."""
        sock = str(tmp_path / "s.sock")
        cache_dir = str(tmp_path / "cache")
        jobs = [make_job(spec=None), make_job(spec="fvp")]
        spec = faults.FaultSpec(kind="wal-crash", match="submit",
                                times=1)

        server = _serve(tmp_path, sock, cache_dir, [spec])
        try:
            with pytest.raises(ServiceUnavailable):
                list(client.submit(sock, jobs, watch=False))
            server.communicate(timeout=60)
            assert server.returncode == faults.CRASH_EXIT_CODE
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)

        server = _serve(tmp_path, sock, cache_dir)
        try:
            result = client.collect_results(
                client.submit(sock, jobs, timeout=240))
            assert result["complete"]["failed"] == 0
            assert result["results"] == _reference(jobs)
        finally:
            _stop_daemon(server, sock)

    def test_sigkill_mid_campaign_watcher_replays_bit_identical(
            self, tmp_path):
        """The headline guarantee: SIGKILL a busy daemon (no injected
        fault point — mid-simulation), restart, and a watcher's replay
        completes bit-identical to uninterrupted serial execution."""
        sock = str(tmp_path / "s.sock")
        cache_dir = str(tmp_path / "cache")
        jobs = [make_job(spec=None), make_job(spec="fvp"),
                make_job(spec="lvp")]

        server = _serve(tmp_path, sock, cache_dir)
        try:
            frames = list(client.submit(sock, jobs, watch=False))
            sid = frames[0]["id"]
            # Kill only once some work has finished.
            deadline = time.time() + 240
            while client.list_jobs(sock)["records"]["done"] < 1:
                assert time.time() < deadline, "daemon never warmed up"
                time.sleep(0.2)
        finally:
            server.kill()  # SIGKILL, mid-campaign
            server.wait(timeout=30)

        # The unsealed log is the crash evidence: doctor reports it,
        # and even --fix leaves it for the next daemon to recover.
        last = _last_record(cache_dir)
        assert last not in (None, {"t": "seal"})
        segments = wal_mod.segment_paths(_wal_root(cache_dir))
        doctor = _spawn(["doctor", "--fix", "--cache-dir", cache_dir],
                        tmp_path)
        out, err = doctor.communicate(timeout=120)
        assert doctor.returncode == 0, err.decode()
        assert b"unsealed WAL: " in out
        assert wal_mod.segment_paths(_wal_root(cache_dir)) == segments
        assert _last_record(cache_dir) == last

        server = _serve(tmp_path, sock, cache_dir)
        try:
            result = client.collect_results(
                client.watch(sock, sid, timeout=240))
            assert result["complete"]["failed"] == 0
            assert result["complete"]["total"] == len(jobs)
            assert result["results"] == _reference(jobs)
        finally:
            _stop_daemon(server, sock)


class TestGracefulDrain:
    def test_sigterm_drains_seals_and_unlinks(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        cache_dir = str(tmp_path / "cache")
        jobs = [make_job(spec=None), make_job(spec="fvp")]

        server = _serve(tmp_path, sock, cache_dir)
        frames = list(client.submit(sock, jobs, watch=False))
        sid = frames[0]["id"]
        server.send_signal(signal.SIGTERM)
        out, err = server.communicate(timeout=300)
        assert server.returncode == 0, err.decode()
        # Clean exit: socket unlinked, the WAL directory holds only
        # segments, and the log's last record is the seal.
        assert not os.path.exists(sock)
        wal_root = _wal_root(cache_dir)
        assert [os.path.join(wal_root, name)
                for name in sorted(os.listdir(wal_root))] \
            == wal_mod.segment_paths(wal_root)
        records, torn = wal_mod.replay_segments(wal_root)
        assert torn == 0
        assert records[-1] == {"t": "seal"}

        # The drain finished the in-flight work before exiting: the
        # restarted daemon replays a *sealed* journal and the watcher
        # sees the completed submission, bit-identical to serial.
        server = _serve(tmp_path, sock, cache_dir)
        try:
            recovery = recovery_stats(sock)
            assert recovery["sealed"] == 1
            assert recovery["requeued"] == 0
            result = client.collect_results(
                client.watch(sock, sid, timeout=60))
            assert result["complete"]["failed"] == 0
            assert result["results"] == _reference(jobs)
        finally:
            _stop_daemon(server, sock)


class TestWireFaults:
    def _daemon(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        cache = ResultCache(str(tmp_path / "cache"))
        server = ServiceDaemon(sock, cache=cache, jobs=1)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        _wait_for_daemon(sock)
        return server, thread

    def test_frame_drop_client_resumes_from_cursor(self, tmp_path):
        """A severed stream mid-result: the client reconnects with its
        journal cursor and still collects every frame exactly once."""
        server, thread = self._daemon(tmp_path)
        job = make_job(spec=None)
        plan = [faults.FaultSpec(kind="frame-drop", match="job done",
                                 times=1)]
        try:
            with faults.installed(plan):
                out = client.collect_results(
                    client.submit(server.socket_path, [job],
                                  timeout=120))
            assert out["complete"]["failed"] == 0
            assert out["results"][job_key(job)] == wire_result(job)
            # The daemon survived the drop; only the stream broke.
            assert client.ping(server.socket_path)["event"] == "pong"
        finally:
            server.stop()
            thread.join(timeout=30)

    def test_slow_loris_cannot_wedge_daemon(self, tmp_path):
        server, thread = self._daemon(tmp_path)
        job = make_job(spec=None)
        try:
            with faults.slow_loris(server.socket_path):
                # Other clients are unaffected while the loris
                # trickles its never-terminated frame...
                assert client.ping(server.socket_path)["event"] \
                    == "pong"
                out = client.collect_results(
                    client.submit(server.socket_path, [job],
                                  timeout=120))
                assert out["complete"]["failed"] == 0
                # ... and shutdown is not blocked by it either.
                server.stop()
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            server.stop()
            thread.join(timeout=30)
