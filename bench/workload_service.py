"""The service workload: one closed-loop client (one connection at a
time) submitting sweeps to a ``repro serve --jobs 2`` daemon.

Set-up starts the daemon on a fresh cache directory and pre-warms it with
16 jobs (8 catalogue workloads x {baseline, fvp}).  Each request is one
submission of 8 of those jobs, which the daemon answers from its board's
completed records; every 8th submission swaps one job for an FVP job on a
fresh trace seed, which the daemon must simulate.  Every submission is
appended to the daemon's write-ahead log, which fsyncs each append.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import harness
import tracing
from repro.errors import ServiceError, ServiceUnavailable
from repro.experiments.campaign import Job, execute_job, job_key
from repro.experiments.runner import default_warmup
from repro.pipeline.results import SimResult
from repro.service import client
from repro.service.protocol import socket_path

WORKLOADS = ("mcf", "gcc", "omnetpp", "milc", "tpce", "xz17", "astar",
             "namd")
HIT_LENGTH = 10_000
MISS_LENGTH = 10_000
#: One submission in this many carries a job the daemon must simulate.
MISS_EVERY = 8
#: Worker processes of the daemon (the machine budget is two cores).
JOBS = 2
#: How often set-up is repeated; ``setup_s`` is the median.
SETUPS = 3
#: Simulated answers compared with an in-process run of the same job.
MISS_CHECKS = 3
#: Longest silence tolerated between frames of one submission.
FRAME_TIMEOUT = 120.0


def hit_jobs(spec: str, seed: Optional[int]) -> List[Job]:
    return [Job(workload=name, core="skylake", spec=spec, length=HIT_LENGTH,
                warmup=default_warmup(HIT_LENGTH), seed=seed)
            for name in WORKLOADS]


def submission(index: int, seed: Optional[int]):
    """The jobs of submission ``index`` and its fresh job, if any."""
    jobs = hit_jobs("fvp" if index % 2 else "baseline", seed)
    fresh = None
    if index % MISS_EVERY == MISS_EVERY - 1:
        # Fresh seeds never collide with the pre-warmed catalogue seeds.
        fresh_seed = 1_000_000 + 100_000 * (seed or 0) + index
        fresh = Job(workload=WORKLOADS[(index // MISS_EVERY) % len(WORKLOADS)],
                    core="skylake", spec="fvp", length=MISS_LENGTH,
                    warmup=default_warmup(MISS_LENGTH), seed=fresh_seed)
        jobs[0] = fresh
    return jobs, fresh


def stat(tree: Dict[str, Any], path: str) -> float:
    """A counter of the daemon's ``stats`` tree by dotted path."""
    node = tree
    for part in path.split("."):
        node = node["children"][part]
    return node["value"]


class Daemon:
    """A campaign-service daemon subprocess on a fresh cache directory
    under the run's scratch directory.

    The cache directory is passed relative to the repository root (the
    working directory of both processes) so the unix socket path stays
    short wherever the checkout lives."""

    def __init__(self, run: harness.Run, name: str,
                 traced: bool = False) -> None:
        self.cache_dir = os.path.relpath(run.tmp / name, harness.ROOT)
        self.path = socket_path(self.cache_dir)
        if traced:
            command = [sys.executable,
                       str(harness.BENCH_DIR / "traced_daemon.py"),
                       "--cache-dir", self.cache_dir, "--jobs", str(JOBS),
                       "--run-id", run.run_id, "--out", str(run.out_dir)]
        else:
            command = [sys.executable, "-m", "repro", "serve",
                       "--jobs", str(JOBS), "--cache-dir", self.cache_dir]
        self.log_path = run.tmp / f"{name}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(command, cwd=harness.ROOT,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the daemon answers ``ping``."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                client.ping(self.path)
                return
            except ServiceUnavailable:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with code {self.proc.returncode}; "
                        f"see {self.log_path}") from None
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        """Ask the daemon to drain and exit, and wait until it has."""
        try:
            if self.proc.poll() is None:
                client.shutdown(self.path)
        except ServiceError:
            pass  # already gone; the wait below reaps it
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


def submit(daemon: Daemon, jobs: List[Job]) -> Dict[str, Any]:
    return client.collect_results(
        client.submit(daemon.path, jobs, timeout=FRAME_TIMEOUT))


def start_daemon(run: harness.Run, name: str, traced: bool = False):
    """Set-up: start a daemon, wait for its first ``ping`` and pre-warm
    it; returns the daemon, the pre-warmed results by job key and the
    host seconds taken."""
    start = time.perf_counter()
    daemon = Daemon(run, name, traced)
    try:
        daemon.wait_ready()
        jobs = hit_jobs("baseline", run.seed) + hit_jobs("fvp", run.seed)
        out = submit(daemon, jobs)
    except BaseException:
        daemon.stop()
        raise
    seconds = time.perf_counter() - start
    run.check(not out["failures"] and len(out["results"]) == len(jobs),
              f"pre-warm of {name}: failures {out['failures']}")
    return daemon, out["results"], seconds


@dataclass
class Loop:
    """What one closed-loop series of submissions measured.

    Submissions come in blocks of MISS_EVERY, one of them fresh; the
    stopwatch calibrates once per block, so each submission's wall time
    is scaled by its block's factor."""

    #: (block, ops returned, wall seconds, fresh?) per answered submission.
    submitted: List[Tuple[int, int, float, bool]] = \
        field(default_factory=list)
    factors: Dict[int, float] = field(default_factory=dict)
    #: (fresh job, the daemon's result) for every simulated answer.
    fresh: List[tuple] = field(default_factory=list)

    def latencies(self, fresh: Optional[bool] = None) -> List[float]:
        """Submission latencies at reference speed (all, or only the
        fresh or only the memory-answered ones)."""
        return [wall * self.factors[block]
                for block, _, wall, is_fresh in self.submitted
                if fresh is None or is_fresh == fresh]

    def rounds(self) -> List[Tuple[int, float]]:
        """(ops, seconds at reference speed) of every complete block."""
        blocks: Dict[int, List[Tuple[int, float]]] = {}
        for block, ops, wall, _ in self.submitted:
            blocks.setdefault(block, []).append(
                (ops, wall * self.factors[block]))
        return [(sum(ops for ops, _ in entries),
                 sum(seconds for _, seconds in entries))
                for entries in blocks.values() if len(entries) == MISS_EVERY]


def run_loop(run: harness.Run, daemon: Daemon, prewarm: Dict[str, Any],
             until: float, tracer: Optional[tracing.Tracer] = None) -> Loop:
    """Submit until ``until``, checking every answer."""
    keys = {job: job_key(job) for spec in ("baseline", "fvp")
            for job in hit_jobs(spec, run.seed)}
    loop = Loop()
    index = 0
    while time.perf_counter() < until:
        block = index // MISS_EVERY
        if index and index % MISS_EVERY == 0:
            loop.factors[block - 1] = run.clock.factor()
        jobs, fresh = submission(index, run.seed)
        index += 1
        run.attempted += 1
        if fresh is not None:
            keys[fresh] = job_key(fresh)
        try:
            start = time.perf_counter()
            with tracer.span("bench.request") if tracer \
                    else contextlib.nullcontext():
                out = submit(daemon, jobs)
            wall = time.perf_counter() - start
        except ServiceError:
            run.fail_exception(f"submission {index}")
            continue
        loop.submitted.append((block, sum(job.length for job in jobs), wall,
                               fresh is not None))
        complete = out["complete"] or {}
        if not run.check(
                complete.get("failed") == 0 and not out["failures"]
                and len(out["results"]) == len(jobs),
                f"submission {index}: {complete}, {out['failures']}"):
            continue
        for job in jobs:
            if job is not fresh:
                run.check(out["results"][keys[job]] == prewarm[keys[job]],
                          f"submission {index}: {job.label} answer differs "
                          "from the pre-warmed result")
        if fresh is not None:
            loop.fresh.append((fresh, out["results"][keys[fresh]]))
    loop.factors[(index - 1) // MISS_EVERY] = run.clock.factor()
    return loop


def check_fresh(run: harness.Run, loop: Loop) -> None:
    """The first simulated answers must equal an in-process run of the
    same job."""
    for job, remote in loop.fresh[:MISS_CHECKS]:
        local = json.loads(json.dumps(execute_job(job).to_dict()))
        run.check(local == remote,
                  f"{job.label} seed {job.seed}: daemon result differs "
                  "from an in-process run")


def run_workload(run: harness.Run) -> None:
    if run.traced:
        run_traced(run)
        return
    setup_times = []
    daemon = None
    # The pre-warm simulates on both CPUs at once.
    setup_clock = harness.Stopwatch(all_cpus=True)
    try:
        for index in range(SETUPS):
            if daemon is not None:
                daemon.stop()
                daemon = None
            daemon, prewarm, seconds = start_daemon(run, f"daemon-{index}")
            setup_times.append(setup_clock.lap(seconds))
        run.clock.factor()  # the first block's calibration starts here
        loop = run_loop(run, daemon, prewarm,
                        time.perf_counter() + run.seconds)
        rss = harness.process_peak_rss_mib(daemon.proc.pid)
    finally:
        if daemon is not None:
            daemon.stop()
    check_fresh(run, loop)
    run.notes["fresh_submissions"] = len(loop.fresh)
    run.report_requests(loop.latencies(), loop.rounds(), setup_times, rss)


def run_traced(run: harness.Run) -> None:
    """An untraced daemon for the client-side splits and the daemon's
    counters, then a traced one for the per-layer times."""
    daemon, prewarm, _ = start_daemon(run, "untraced")
    try:
        before = client.fetch_stats(daemon.path)["tree"]
        plain = run_loop(run, daemon, prewarm,
                         time.perf_counter() + 0.4 * run.seconds)
        after = client.fetch_stats(daemon.path)["tree"]
    finally:
        daemon.stop()
    check_fresh(run, plain)

    tracer = tracing.Tracer(run.run_id, run.out_dir)
    daemon, prewarm, _ = start_daemon(run, "traced", traced=True)
    tracing.instrument_client(tracer)
    try:
        window_start = time.perf_counter()
        traced = run_loop(run, daemon, prewarm,
                          window_start + 0.4 * run.seconds, tracer)
        window_end = time.perf_counter()
    finally:
        tracer.restore()
        daemon.stop()
    tracer.flush()
    spans = tracing.SpanSet(tracing.collect(run.out_dir, run.run_id),
                            window_start, window_end)
    for problem in spans.self_check():
        run.fail(problem)
    # The board logs each submission once and each simulated job's start
    # and done events; every one of those appends must have been traced.
    submits = spans.named("service.submit")["calls"]
    appends = spans.named("service.wal.append")["calls"]
    run.check(submits == len(traced.submitted)
              and appends == submits + 2 * len(traced.fresh),
              f"traced {submits} submissions and {appends} WAL appends; "
              f"the client made {len(traced.submitted)} submissions with "
              f"{len(traced.fresh)} simulated jobs")

    metrics = tracing.layer_metrics(spans)
    for prefix, metric in (("service.wal.append", "service.wal.append_ms"),
                           ("service.wal.fsync", "service.wal.fsync_ms"),
                           ("service.board.submit", "service.board.submit_ms"),
                           ("service.protocol", "service.protocol.codec_ms")):
        metrics[metric] = 1e3 * spans.named(prefix)["total"] / submits
    metrics["service.hit_p50_ms"] = 1e3 * statistics.median(
        plain.latencies(fresh=False))
    metrics["service.miss_p50_ms"] = 1e3 * statistics.median(
        plain.latencies(fresh=True))

    def delta(path: str) -> float:
        return stat(after, path) - stat(before, path)

    metrics["service.wal.appends_per_submit"] = \
        delta("service.wal.appends") / delta("service.submissions")
    deduped = delta("service.jobs.deduped-cached") \
        + delta("service.jobs.deduped-inflight")
    metrics["service.dedup_frac"] = \
        deduped / (deduped + delta("service.jobs.accepted"))
    metrics.update(harness.prediction_quality(
        SimResult.from_dict(result) for _, result in plain.fresh))
    metrics["tracing.overhead_frac"] = \
        statistics.mean(traced.latencies()) \
        / statistics.mean(plain.latencies()) - 1.0
    run.notes["dominant_layer"] = tracing.dominant_layer(metrics)
    run.report_layers(metrics)
