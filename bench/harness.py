"""Shared measurement helpers for the benchmark's workloads."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_json(path: Path) -> Dict[str, Any]:
    """``BENCHMARK.json``, ``bench/expected.json`` and result files."""
    return json.loads(path.read_text(encoding="utf-8"))


def keep_going(until: float, durations: Sequence[float]) -> bool:
    """Whether to start another unit of work of typical length
    ``median(durations)`` before ``until``: always the first, then only
    while at least half of one still fits."""
    if not durations:
        return True
    return time.perf_counter() + 0.5 * statistics.median(durations) <= until


def peak_rss_mib() -> float:
    """Peak resident set of this process or of any child it waited for,
    in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def prediction_quality(results: Iterable[Any]) -> Dict[str, float]:
    """Mean coverage and accuracy over FVP ``SimResult`` objects (exact
    simulated values)."""
    results = list(results)
    return {"predictors.coverage": statistics.mean(
                r.coverage for r in results),
            "predictors.accuracy": statistics.mean(
                r.accuracy for r in results)}


def process_peak_rss_mib(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


#: Seconds the calibration loop takes at the reference speed: its fastest
#: time on the 2-vCPU Xeon machine the benchmark was defined on.
REFERENCE_SPEED_S = 0.0064
#: Loops timed per CPU when calibrating on every CPU; their median is the
#: CPU's speed.  One loop per CPU made the scaled time of a 2-second
#: daemon set-up vary by 0.11 of its mean over 20 set-ups, five by 0.07.
ALL_CPUS_REPEATS = 5


def calibration_seconds() -> float:
    """Time a fixed, program-independent loop of interpreter work (dict
    stores and lookups, integer arithmetic), like the simulator's own."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(40_000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0) & 0xFF
    return time.perf_counter() - start


class Stopwatch:
    """Converts host seconds to seconds at the reference speed.

    The machine this benchmark runs on changes speed by up to half over
    seconds to minutes, as other tenants come and go; every host-side
    timing moves with it.  So the calibration loop is timed next to each
    measured section, and the section's time is scaled by
    ``REFERENCE_SPEED_S`` over the mean of the calibrations just before
    and just after it.  The calibration does not touch the program, so a
    change to the program moves the scaled times exactly as it moves wall
    times on a machine of steady speed."""

    def __init__(self, all_cpus: bool = False) -> None:
        #: Calibrate on every CPU this process may use, one at a time,
        #: and average: for work that runs on all of them at once (each
        #: CPU changes speed on its own).  Otherwise one loop runs on the
        #: CPU the work just ran on.
        self.all_cpus = all_cpus
        self._before = self._calibrate()
        #: Every factor applied (1.0 = the machine ran at reference speed).
        self.factors: List[float] = []

    def _calibrate(self) -> float:
        if not self.all_cpus:
            return calibration_seconds()
        cpus = os.sched_getaffinity(0)
        seconds = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                seconds.append(statistics.median(
                    calibration_seconds() for _ in range(ALL_CPUS_REPEATS)))
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.mean(seconds)

    def factor(self) -> float:
        """Calibrate now; the scale for work done since the last call."""
        after = self._calibrate()
        self.factors.append(2 * REFERENCE_SPEED_S / (self._before + after))
        self._before = after
        return self.factors[-1]

    def lap(self, seconds: float) -> float:
        """``seconds`` of host time just measured, at reference speed."""
        return seconds * self.factor()


class Run:
    """One benchmark run of one workload: the requests attempted, the
    failures found, and the metrics to report.

    ``seed`` is ``None`` for the catalogue's stable trace seeds.  Scratch
    files live under ``<out_dir>/tmp/<run_id>`` and are removed by
    :meth:`cleanup`; span files and the result stay in ``out_dir``."""

    def __init__(self, workload: str, seed: Optional[int], seconds: float,
                 traced: bool, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.out_dir = Path(out_dir)
        seed_label = "default" if seed is None else str(seed)
        self.run_id = f"{workload}.seed{seed_label}.trace{int(traced)}"
        self.tmp = self.out_dir / "tmp" / self.run_id
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        for stale in self.out_dir.glob(f"{self.run_id}.*spans.jsonl"):
            stale.unlink()
        self.spec = load_json(ROOT / "BENCHMARK.json")
        self.units = {metric["name"]: metric["unit"]
                      for kind in ("end_to_end", "per_layer")
                      for metric in self.spec[kind]}
        self.clock = Stopwatch()
        self.attempted = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        #: Diagnostics written to the result file, not the summary line.
        self.notes: Dict[str, Any] = {}

    def fail(self, message: str) -> None:
        """Count one failed operation or output check."""
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> bool:
        """Count a failure unless ``ok``."""
        if not ok:
            self.fail(message)
        return ok

    def fail_exception(self, what: str) -> None:
        """Count the exception being handled as a failed operation."""
        self.fail(f"{what}: {traceback.format_exc(limit=4)}")

    def metric(self, name: str, value: float) -> None:
        """Record one metric; its unit comes from BENCHMARK.json."""
        self.metrics[name] = {"value": float(value),
                              "unit": self.units[name]}

    def report_requests(self, latencies: Sequence[float],
                        rounds: Sequence[Tuple[int, float]],
                        setup_times: Sequence[float],
                        rss_mib: float) -> None:
        """The end-to-end metrics every workload reports.  A round is
        the workload's repeating unit of requests (a pass over the
        traces, one regeneration, one block of submissions holding one
        simulated job), given as (simulated micro-ops whose results the
        requests returned, seconds spent in the requests); throughput is
        the median over rounds, so a slow spell on the machine moves it
        less than a total would."""
        self.metric("setup_s", statistics.median(setup_times))
        self.metric("request_p50_ms", 1e3 * statistics.median(latencies))
        self.metric("request_p90_ms", 1e3 * statistics.quantiles(
            latencies, n=10, method="inclusive")[8])
        self.metric("throughput_kops", statistics.median(
            ops / seconds for ops, seconds in rounds) / 1e3)
        self.metric("peak_rss_mb", rss_mib)
        self.notes["latencies"] = list(latencies)
        self.notes["rounds"] = list(rounds)
        self.notes["setup_times"] = list(setup_times)
        self.notes["speed_factors"] = self.clock.factors

    def report_layers(self, metrics: Dict[str, float]) -> None:
        """Record per-layer metrics; those a workload does not exercise
        read 0."""
        for spec in self.spec["per_layer"]:
            self.metric(spec["name"], metrics.get(spec["name"], 0.0))
        unknown = set(metrics) - {spec["name"]
                                  for spec in self.spec["per_layer"]}
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: "
                           f"{sorted(unknown)}")

    def result(self) -> Dict[str, Any]:
        """The summary line: exactly ``correct``, ``attempted``,
        ``failed`` and ``metrics``."""
        wanted = "per_layer" if self.traced else "end_to_end"
        missing = [spec["name"] for spec in self.spec[wanted]
                   if spec["name"] not in self.metrics]
        if missing:
            raise KeyError(f"{self.workload} did not report {missing}")
        return {"correct": not self.failures,
                "attempted": max(self.attempted, 1),
                "failed": len(self.failures),
                "metrics": {spec["name"]: self.metrics[spec["name"]]
                            for spec in self.spec[wanted]}}

    def cleanup(self) -> None:
        """Remove the run's scratch directory."""
        shutil.rmtree(self.tmp, ignore_errors=True)
