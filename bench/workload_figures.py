"""The figure workload: regenerate Figures 6 and 10 from a cold result
cache through the campaign engine's worker pool, as ``repro figure``
does.

A round is one cold regeneration of both figures: 24 pool jobs, each
rebuilding its trace and simulating in a forked worker.  A request is
one of those jobs, timed by its worker as the campaign's progress lines
report it; the round's time gives the throughput.  Set-up loads the
figure stack in a fresh interpreter.  After each round both figures are
rendered again from the now warm cache, which must give the same dicts;
that rerun is not timed.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import harness
import tracing
from repro.experiments import figures

#: Trace length of every job.  At 20k ops FVP predicts loads on every
#: workload of every category (at 10k it predicts none on the FSPEC06
#: ones, at 5k none on FSPEC06 or SPEC17), and several rounds still fit
#: in one run.  ``--full-scale`` raises it to 100k.
LENGTH = 20_000
#: One workload per category: 4 workloads x (baseline + 5 predictors).
PER_CATEGORY = 1
#: Worker processes (the benchmark's machine budget is two cores).
JOBS = 2
#: How often set-up is repeated; ``setup_s`` is the median.
SETUPS = 11
#: Run in a fresh interpreter: load the figure stack and print the
#: seconds that took, the interpreter's own start-up excluded.
IMPORT_TIMER = ("import time; start = time.perf_counter(); "
                "import repro.experiments.figures; "
                "print(time.perf_counter() - start)")

PREDICTORS = ("baseline",) + tuple(figures.FIG10_PREDICTORS)


def make_runner(cache_dir, seed: Optional[int], progress=None):
    """The runner ``repro figure`` would build on ``cache_dir``."""
    return figures.default_runner(
        length=LENGTH, per_category=PER_CATEGORY, jobs=JOBS, use_cache=True,
        cache_dir=str(cache_dir), progress=progress, seed=seed)


def setup_once(run: harness.Run) -> float:
    """Load the figure stack in a fresh interpreter, as ``repro figure``
    does before its first job; returns the seconds at reference speed."""
    done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], check=True,
                          cwd=harness.ROOT, stdout=subprocess.PIPE, text=True)
    return run.clock.lap(float(done.stdout))


def render(runner) -> Dict[str, Any]:
    return {"figure6": figures.figure6(runner),
            "figure10": figures.figure10(runner)}


@dataclass
class Rounds:
    """What a series of cold regenerations measured."""

    #: Job times at reference speed (each scaled by its round's factor).
    latencies: List[float] = field(default_factory=list)
    #: (simulated ops, seconds at reference speed) of each round.
    rounds: List[Tuple[int, float]] = field(default_factory=list)
    #: Host seconds of each round.
    walls: List[float] = field(default_factory=list)
    #: The pool workers' ``done`` events (elapsed = one job's host time).
    done: list = field(default_factory=list)
    warm_seconds: List[float] = field(default_factory=list)
    fvp_results: list = field(default_factory=list)


def run_rounds(run: harness.Run, until: float, reference: Dict[str, Any],
               tracer: Optional[tracing.Tracer] = None) -> Rounds:
    """Cold regenerations, each followed by a warm one, until ``until``."""
    out = Rounds()
    index = 0
    while harness.keep_going(until, out.walls):
        cache_dir = run.tmp / f"cache-{index}"
        index += 1
        events: list = []
        runner = make_runner(cache_dir, run.seed, events.append)
        jobs = len(runner.workloads) * len(PREDICTORS)
        run.attempted += jobs
        try:
            start = time.perf_counter()
            with tracer.span("bench.round") if tracer \
                    else contextlib.nullcontext():
                rendered = render(runner)
            wall = time.perf_counter() - start
            factor = run.clock.factor()
            start = time.perf_counter()
            with tracer.span("bench.warm") if tracer \
                    else contextlib.nullcontext():
                again = render(make_runner(cache_dir, run.seed))
            out.warm_seconds.append(time.perf_counter() - start)
        # A round that raises is counted and the loop goes on.
        except Exception:  # noqa: BLE001 - benchmark request boundary
            run.fail_exception(f"cold regeneration {index}")
            continue
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        done = [event for event in events if event.status == "done"]
        out.done.extend(done)
        out.latencies.extend(event.elapsed * factor for event in done)
        out.walls.append(wall)
        out.rounds.append((sum(event.job.length for event in done),
                           wall * factor))
        run.check(len(done) == jobs and len(events) == jobs,
                  f"cold regeneration {index}: {len(done)} of {jobs} jobs "
                  f"simulated, events {[e.status for e in events]}")
        run.check(again == rendered,
                  f"regeneration {index}: warm render differs from cold")
        first = reference.setdefault("figures", rendered)
        run.check(rendered == first,
                  f"regeneration {index}: figures differ from the first")
        if tracer is None:
            out.fvp_results.extend(r.result for r in runner.suite("fvp").runs)
    return out


def check_pins(run: harness.Run, reference: Dict[str, Any]) -> None:
    """With the catalogue seeds, the figures must equal the pinned ones;
    prints the paper's values beside the measured gains."""
    if "figures" not in reference:
        return
    observed = json.loads(json.dumps(reference["figures"]))
    run.notes["figures"] = observed
    pins = harness.load_json(harness.BENCH_DIR / "expected.json")["figures"]
    if run.seed is None and pins["length"] == LENGTH \
            and pins["per_category"] == PER_CATEGORY:
        run.check(observed == pins["values"],
                  "figures differ from the pinned values")
    for category, paper in figures.PAPER_FIG6.items():
        measured = observed["figure6"].get(category)
        if measured is not None:
            print(f"figure6  {category:14} gain {measured['gain']:+.4f}"
                  f"  paper {paper['gain']:+.4f} (shape reference only)")
    for name, paper in figures.PAPER_FIG10.items():
        print(f"figure10 {name:14} gain {observed['figure10'][name]['gain']:+.4f}"
              f"  paper {paper['gain']:+.4f} (shape reference only)")


def run_workload(run: harness.Run) -> None:
    # The two pool workers run on both CPUs at once.
    run.clock = harness.Stopwatch(all_cpus=True)
    if run.traced:
        run_traced(run)
        return
    setup_times = [setup_once(run) for _ in range(SETUPS)]
    reference: Dict[str, Any] = {}
    measured = run_rounds(run, time.perf_counter() + run.seconds, reference)
    check_pins(run, reference)
    run.notes["round_seconds"] = [seconds for _, seconds in measured.rounds]
    run.report_requests(measured.latencies, measured.rounds, setup_times,
                        harness.peak_rss_mib())


def run_traced(run: harness.Run) -> None:
    """Untraced regenerations for the pool metrics, then traced ones."""
    reference: Dict[str, Any] = {}
    plain = run_rounds(run, time.perf_counter() + 0.4 * run.seconds,
                       reference)
    busy = sum(event.elapsed for event in plain.done)
    tracer = tracing.Tracer(run.run_id, run.out_dir)
    tracing.instrument(tracer, predictors=PREDICTORS)
    try:
        window_start = time.perf_counter()
        traced = run_rounds(run, window_start + 0.4 * run.seconds,
                            reference, tracer)
        window_end = time.perf_counter()
    finally:
        tracer.restore()
    tracer.flush()
    spans = tracing.SpanSet(tracing.collect(run.out_dir, run.run_id),
                            window_start, window_end)
    for problem in spans.self_check():
        run.fail(problem)
    check_pins(run, reference)

    metrics = tracing.layer_metrics(spans)
    metrics.update(harness.prediction_quality(plain.fvp_results))
    wall = sum(plain.walls)
    metrics["experiments.pool.busy_frac"] = busy / (JOBS * wall)
    metrics["experiments.pool.overhead_ms_per_job"] = \
        1e3 * (JOBS * wall - busy) / len(plain.done)
    metrics["experiments.job_p50_s"] = statistics.median(
        event.elapsed for event in plain.done)
    for name, metric in (("experiments.serialize", "serialize_ms"),
                         ("experiments.cache.put", "cache.put_ms"),
                         ("experiments.cache.get", "cache.get_ms")):
        calls = spans.named(name)
        metrics[f"experiments.{metric}"] = \
            1e3 * calls["total"] / calls["calls"] if calls["calls"] else 0.0
    metrics["experiments.cache.warm_rerun_s"] = statistics.median(
        plain.warm_seconds)
    metrics["tracing.overhead_frac"] = \
        statistics.mean(seconds for _, seconds in traced.rounds) \
        / statistics.mean(seconds for _, seconds in plain.rounds) - 1.0
    run.notes["dominant_layer"] = tracing.dominant_layer(metrics)
    run.report_layers(metrics)
