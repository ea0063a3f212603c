"""Fault-injection suite for the campaign fault-tolerance layer
(docs/ROBUSTNESS.md).

Deterministically injects worker crashes, hangs, transient exceptions,
and torn cache writes (:mod:`repro.testing.faults`) and asserts the
watchdog/retry/quarantine machinery: hung jobs are killed and retried,
repeat offenders are quarantined without aborting the campaign, torn
cache entries are detected and recomputed, and re-running the command
an interrupted sweep printed re-runs only its unfinished jobs.

Run in CI as its own job with a hard wall-clock guard:
``timeout 480 python -m pytest tests/test_faults.py -p no:cacheprovider``.
Every scenario uses tiny traces and sub-second timeouts, so the whole
file completes in well under a minute.
"""

import json
import os
import shlex
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import CampaignError, TransientError
from repro.experiments.campaign import (
    CampaignEngine,
    Job,
    ResultCache,
    execute_job,
    job_key,
)
from repro.testing import faults

LENGTH = 2000
WARMUP = 500

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_jobs(*workloads, spec="lvp"):
    return [Job(w, "skylake", spec, LENGTH, WARMUP) for w in workloads]


def make_engine(tmp_path=None, **kwargs):
    cache = ResultCache(str(tmp_path / "cache")) if tmp_path else None
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("backoff", 0.01)
    return CampaignEngine(cache=cache, **kwargs)


# ----------------------------------------------------------------------
# Fault-plan plumbing.
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_encode_decode_roundtrip(self):
        plan = [faults.FaultSpec("crash", match="astar", times=2),
                faults.FaultSpec("hang", seconds=5.0)]
        assert faults.decode(faults.encode(plan)) == plan

    def test_decode_rejects_junk(self):
        with pytest.raises(ValueError):
            faults.decode('{"kind": "crash"}')
        with pytest.raises(ValueError):
            faults.decode('[{"kind": "meteor-strike"}]')

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultSpec("nonsense")
        with pytest.raises(ValueError):
            faults.FaultSpec("crash", times=0)

    def test_installed_restores_environment(self):
        assert faults.FAULTS_ENV not in os.environ
        with faults.installed([faults.FaultSpec("raise")]):
            assert faults.active_plan()
        assert faults.FAULTS_ENV not in os.environ

    def test_raise_fires_only_on_matching_attempts(self):
        with faults.installed([faults.FaultSpec("raise", match="astar",
                                                times=2)]):
            with pytest.raises(TransientError):
                faults.inject_job_faults("astar/skylake/lvp", 1)
            with pytest.raises(TransientError):
                faults.inject_job_faults("astar/skylake/lvp", 2)
            faults.inject_job_faults("astar/skylake/lvp", 3)  # exhausted
            faults.inject_job_faults("milc/skylake/lvp", 1)   # no match


# ----------------------------------------------------------------------
# Hang → watchdog kill → retry.
# ----------------------------------------------------------------------
class TestHangKillRetry:
    def test_hung_worker_is_killed_and_retried_to_success(self):
        jobs = make_jobs("astar", "milc")
        plan = [faults.FaultSpec("hang", match="astar", times=1,
                                 seconds=60.0)]
        engine = make_engine(jobs=2, timeout=1.0)
        with faults.installed(plan):
            results = engine.run_jobs(jobs)
        assert set(results) == set(jobs)
        assert engine.stats.timeouts == 1
        assert engine.stats.retries == 1
        assert engine.ledger.complete

    def test_persistent_hang_quarantines_without_abort(self):
        jobs = make_jobs("astar", "milc")
        plan = [faults.FaultSpec("hang", match="astar", times=99,
                                 seconds=60.0)]
        engine = make_engine(jobs=2, timeout=0.5, retries=1, strict=False)
        with faults.installed(plan):
            results = engine.run_jobs(jobs)
        assert set(results) == {jobs[1]}          # sibling completed
        failure = engine.ledger.failures[jobs[0]]
        assert failure.error == "JobTimeout"
        assert failure.attempts == 2              # initial + 1 retry
        assert engine.ledger.total == 2           # complete accounting

    def test_timed_out_result_matches_clean_run(self, tmp_path):
        jobs = make_jobs("astar", "milc")
        plan = [faults.FaultSpec("hang", match="astar", times=1,
                                 seconds=60.0)]
        engine = make_engine(jobs=2, timeout=1.0)
        with faults.installed(plan):
            retried = engine.run_jobs(jobs)[jobs[0]]
        assert retried == execute_job(jobs[0])


# ----------------------------------------------------------------------
# Crash → quarantine after max retries, campaign completes.
# ----------------------------------------------------------------------
class TestCrashQuarantine:
    def test_crashing_worker_is_retried_then_quarantined(self):
        jobs = make_jobs("astar", "milc", "hadoop")
        plan = [faults.FaultSpec("crash", match="astar", times=99)]
        engine = make_engine(jobs=2, retries=1, strict=False)
        with faults.installed(plan):
            results = engine.run_jobs(jobs)
        assert set(results) == set(jobs[1:])
        failure = engine.ledger.failures[jobs[0]]
        assert failure.error == "WorkerCrash"
        assert failure.attempts == 2
        assert str(faults.CRASH_EXIT_CODE) in failure.message
        assert engine.stats.crashes >= 2

    def test_transient_crash_recovers(self):
        jobs = make_jobs("astar", "milc")
        plan = [faults.FaultSpec("crash", match="astar", times=1)]
        engine = make_engine(jobs=2)
        with faults.installed(plan):
            results = engine.run_jobs(jobs)
        assert set(results) == set(jobs)
        assert engine.ledger.complete

    def test_strict_mode_raises_after_campaign_drains(self):
        jobs = make_jobs("astar", "milc")
        plan = [faults.FaultSpec("crash", match="astar", times=99)]
        engine = make_engine(jobs=2, retries=0, strict=True)
        with faults.installed(plan):
            with pytest.raises(CampaignError) as excinfo:
                engine.run_jobs(jobs)
        # The sibling still completed before the raise: complete ledger.
        ledger = excinfo.value.ledger
        assert jobs[1] in ledger.results
        assert ledger.failures[jobs[0]].error == "WorkerCrash"


# ----------------------------------------------------------------------
# Transient exceptions retried on the serial path.
# ----------------------------------------------------------------------
class TestSerialRetry:
    def test_transient_error_retried_in_process(self):
        jobs = make_jobs("astar")
        plan = [faults.FaultSpec("raise", match="astar", times=1)]
        engine = make_engine(jobs=1)
        with faults.installed(plan):
            results = engine.run_jobs(jobs)
        assert jobs[0] in results
        assert engine.stats.retries == 1

    def test_exhausted_retries_reraise_original(self):
        jobs = make_jobs("astar")
        plan = [faults.FaultSpec("raise", match="astar", times=99)]
        engine = make_engine(jobs=1, retries=1)
        with faults.installed(plan):
            with pytest.raises(TransientError):
                engine.run_jobs(jobs)
        assert engine.ledger.failures[jobs[0]].attempts == 2


# ----------------------------------------------------------------------
# Torn cache writes: detect, quarantine, recompute.
# ----------------------------------------------------------------------
class TestTornWrite:
    def test_torn_entry_detected_and_recomputed(self, tmp_path):
        jobs = make_jobs("astar")
        key = job_key(jobs[0])
        plan = [faults.FaultSpec("torn-write", match="astar", times=1)]
        engine = make_engine(tmp_path, jobs=1)
        with faults.installed(plan):
            first = engine.run_jobs(jobs)[jobs[0]]
        # The injected tear left truncated JSON at the final path.
        cache = engine.cache
        with pytest.raises(ValueError):
            json.load(open(cache.path(key), encoding="utf-8"))
        # A fresh campaign detects the corruption, quarantines the
        # entry, and recomputes an identical result.
        engine2 = CampaignEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path / "cache")))
        second = engine2.run_jobs(jobs)[jobs[0]]
        assert second == first
        assert engine2.cache.quarantined == 1
        assert os.path.exists(cache.path(key) + ".bad")
        # The healed entry now serves hits.
        engine3 = CampaignEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path / "cache")))
        engine3.run_jobs(jobs)
        assert engine3.cache.hits == 1

    def test_quarantine_recorded_in_stats(self, tmp_path):
        jobs = make_jobs("astar")
        plan = [faults.FaultSpec("torn-write", match="astar", times=1)]
        engine = make_engine(tmp_path, jobs=1)
        with faults.installed(plan):
            engine.run_jobs(jobs)
        engine2 = CampaignEngine(jobs=1,
                                 cache=ResultCache(str(tmp_path / "cache")))
        engine2.run_jobs(jobs)
        stats = engine2.cache.load_stats()
        assert stats["quarantined"] == 1


# ----------------------------------------------------------------------
# Kill a sweep mid-flight; its printed command re-runs only unfinished
# jobs.
# ----------------------------------------------------------------------
class TestSweepResume:
    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        return env

    def test_sigkill_then_resume_runs_only_missing_jobs(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "lvp",
             "--per-category", "1", "--length", str(LENGTH),
             "--warmup", str(WARMUP), "--jobs", "2",
             "--cache-dir", cache_dir],
            cwd=REPO, env=self._env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        # Let the sweep finish some jobs, then kill it the hard way.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            done = len([n for n in os.listdir(cache_dir)
                        if n.endswith(".json") and n != "stats.json"]) \
                if os.path.isdir(cache_dir) else 0
            if done >= 1:
                break
            if proc.poll() is not None:
                break  # finished before we could kill it — still valid
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        _, err = proc.communicate()
        finished_before = {n for n in os.listdir(cache_dir)
                          if n.endswith(".json") and n != "stats.json"}

        hints = [line for line in err.decode().splitlines()
                 if line.startswith("resume with: ")]
        assert len(hints) == 1, err.decode()
        command = shlex.split(hints[0][len("resume with: "):])
        assert command[:2] == ["repro", "sweep"]
        resumed = subprocess.run(
            [sys.executable, "-m", *command], cwd=REPO, env=self._env(),
            capture_output=True, text=True, timeout=300)
        assert resumed.returncode == 0, resumed.stderr
        # Every job finished before the kill was served from the
        # cache, not re-simulated.
        assert resumed.stderr.count("cache hit") >= len(finished_before)
        # The same arguments print the same command again.
        assert hints[0] in resumed.stderr.splitlines()
        # The result cache is the only progress record.
        assert not os.path.exists(os.path.join(cache_dir, "campaigns"))


# ----------------------------------------------------------------------
# Concurrent campaigns sharing one cache directory.
# ----------------------------------------------------------------------
WRITER_SCRIPT = """
import sys
from repro.experiments.campaign import CampaignEngine, Job, ResultCache

jobs = [Job(w, "skylake", "lvp", {length}, {warmup})
        for w in ("astar", "milc", "hadoop")]
engine = CampaignEngine(jobs=1, cache=ResultCache(sys.argv[1]))
results = engine.run_jobs(jobs)
assert len(results) == 3
print("writes", engine.cache.stores, "skipped",
      engine.cache.skipped_writes)
"""


class TestConcurrentCampaigns:
    def test_lock_loser_falls_back_to_read_only(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        winner = ResultCache(cache_dir)
        assert winner.try_lock()
        try:
            loser = ResultCache(cache_dir)
            jobs = make_jobs("astar")
            engine = CampaignEngine(jobs=1, cache=loser)
            results = engine.run_jobs(jobs)
            assert jobs[0] in results          # still simulates fine
            assert loser.read_only
            assert loser.skipped_writes >= 1   # single writer wins
            assert engine.stats.lock_conflicts == 1
            assert loser.entries() == []       # nothing written
        finally:
            winner.unlock()
        # With the lock free again, campaigns write normally.
        fresh = CampaignEngine(jobs=1, cache=ResultCache(cache_dir))
        fresh.run_jobs(make_jobs("astar"))
        assert len(ResultCache(cache_dir).entries()) == 1

    def test_two_processes_overlapping_jobs_no_torn_reads(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        script = WRITER_SCRIPT.format(length=LENGTH, warmup=WARMUP)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   cache_dir],
                                  cwd=REPO, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [proc.communicate(timeout=300) for proc in procs]
        for proc, (out, err) in zip(procs, outs):
            assert proc.returncode == 0, err
        # Every surviving entry must parse — no torn reads ever.
        cache = ResultCache(cache_dir)
        entries = cache.entries()
        assert entries
        for key in entries:
            assert cache.get(key) is not None
        assert cache.quarantined == 0
