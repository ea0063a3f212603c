"""The simulation workloads: seven catalogue traces, built once in set-up
and held in memory, timed on the Skylake core with FVP (``sim-fvp``) or
with no value predictor (``sim-baseline``).

One request is one ``Engine.run`` of one trace; requests go round the
traces in whole passes, so every trace weighs the same in each metric.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from typing import Dict, List, Optional, Tuple

import harness
import tracing
from repro.experiments.runner import core_config, default_warmup
from repro.pipeline.engine import Engine
from repro.predictors import make_predictor
from repro.trace import builder
from repro.trace.io import open_trace, write_trace_file
from repro.trace.workloads import get_profile, reseeded

#: ISPEC06 (mcf, gcc, omnetpp), FSPEC06 (milc, namd), Server (tpce) and
#: SPEC17 (xz17): every category of the paper's suite.  An odd count puts
#: the median request on one trace rather than between the fast and the
#: slow traces, where it would jump from run to run.
TRACES = ("mcf", "gcc", "omnetpp", "milc", "namd", "tpce", "xz17")
#: Trace length: long enough that a request is mostly steady-state work
#: (the warmup prefix fills the modelled caches and predictor tables),
#: short enough for several whole passes within one run.  ``--full-scale``
#: raises it to the catalogue default (250k).
LENGTH = 50_000
#: How often set-up is repeated; ``setup_s`` is the median.
SETUPS = 3
#: Traces the traced run re-times under each rung of the ablation ladder,
#: and how many times (the fastest counts).
ABLATION_TRACES = ("gcc", "omnetpp")
ABLATION_ROUNDS = 2


def build_traces(seed: Optional[int]) -> Dict[str, list]:
    """The workload's traces; ``seed`` replaces every trace's stable
    catalogue seed.  Each trace gets its own seed derived from it: mcf
    and gcc share one kernel mix, so one seed would make them the same
    trace."""
    traces = {}
    for index, name in enumerate(TRACES):
        profile = get_profile(name)
        if seed is not None:
            profile = reseeded(profile, seed * len(TRACES) + index)
        traces[name] = builder.build_trace(profile, LENGTH)
    return traces


def simulate(trace, name: str, predictor: str, **engine_options):
    """One request: time ``trace`` on a fresh Skylake engine."""
    engine = Engine(core_config("skylake"), make_predictor(predictor),
                    **engine_options)
    return engine.run(trace, workload=name, warmup=default_warmup(LENGTH))


def check_result(run: harness.Run, key: tuple, result, ops: int,
                 reference: Dict[tuple, int], stalls: bool = True) -> None:
    """Output checks that hold for any seed: the warmup split, the exact
    stall partition, and identical cycles every time ``key`` (trace,
    predictor) is simulated, whatever the backend or trace delivery."""
    run.check(result.instructions == ops - default_warmup(LENGTH),
              f"{key}: {result.instructions} measured instructions")
    partition = sum(result.stall_cycles.values())
    run.check(partition == (result.cycles if stalls else 0),
              f"{key}: stall partition sums to {partition}, "
              f"{result.cycles} cycles")
    first = reference.setdefault(key, result.cycles)
    run.check(result.cycles == first,
              f"{key}: {result.cycles} cycles, {first} in an earlier run")


def run_passes(run: harness.Run, traces: Dict[str, list], predictor: str,
               until: float, reference: Dict[tuple, int],
               tracer: Optional[tracing.Tracer] = None):
    """Simulate every trace once per pass until ``until``; returns the
    request latencies, each pass as (ops, seconds), and the results."""
    latencies: List[float] = []
    results = []
    passes: List[Tuple[int, float]] = []
    while harness.keep_going(until, [seconds for _, seconds in passes]):
        first = len(latencies)
        for name, trace in traces.items():
            run.attempted += 1
            start = time.perf_counter()
            with tracer.span("bench.request") if tracer \
                    else contextlib.nullcontext():
                result = simulate(trace, name, predictor)
            latencies.append(run.clock.lap(time.perf_counter() - start))
            check_result(run, (name, predictor), result, len(trace),
                         reference)
            results.append(result)
        passes.append((sum(len(trace) for trace in traces.values()),
                       sum(latencies[first:])))
    return latencies, passes, results


def check_pins(run: harness.Run, predictor: str,
               reference: Dict[tuple, int]) -> None:
    """With the catalogue seeds, the cycles must equal the pinned ones."""
    observed = {name: reference[(name, predictor)] for name in TRACES
                if (name, predictor) in reference}
    run.notes["cycles"] = observed
    pins = harness.load_json(harness.BENCH_DIR / "expected.json")["sim"]
    if run.seed is not None or pins["length"] != LENGTH \
            or tuple(pins["traces"]) != TRACES:
        return
    for name, cycles in observed.items():
        want = pins["cycles"][predictor][name]
        run.check(cycles == want,
                  f"{name}/{predictor}: {cycles} cycles, pinned {want}")


def run_workload(run: harness.Run, predictor: str) -> None:
    if run.traced:
        run_traced(run, predictor)
        return
    setup_times = []
    traces: Dict[str, list] = {}
    for _ in range(SETUPS):
        traces = {}
        gc.collect()
        start = time.perf_counter()
        traces = build_traces(run.seed)
        setup_times.append(run.clock.lap(time.perf_counter() - start))
    reference: Dict[tuple, int] = {}
    deadline = time.perf_counter() + run.seconds
    latencies, passes, _ = run_passes(run, traces, predictor, deadline,
                                      reference)
    check_pins(run, predictor, reference)
    run.report_requests(latencies, passes, setup_times,
                        harness.peak_rss_mib())


def run_traced(run: harness.Run, predictor: str) -> None:
    """Untraced passes, traced passes, then the ablation ladder."""
    start = time.perf_counter()
    traces = build_traces(run.seed)
    build_s = time.perf_counter() - start
    reference: Dict[tuple, int] = {}

    start = time.perf_counter()
    plain, _, results = run_passes(run, traces, predictor,
                                   start + 0.25 * run.seconds, reference)
    tracer = tracing.Tracer(run.run_id, run.out_dir)
    tracing.instrument(tracer, predictors=(predictor,))
    try:
        window_start = time.perf_counter()
        traced, _, _ = run_passes(run, traces, predictor,
                                  window_start + 0.45 * run.seconds,
                                  reference, tracer)
        window_end = time.perf_counter()
    finally:
        tracer.restore()
    tracer.flush()
    spans = tracing.SpanSet(tracing.collect(run.out_dir, run.run_id),
                            window_start, window_end)
    for problem in spans.self_check():
        run.fail(problem)
    check_pins(run, predictor, reference)

    metrics = tracing.layer_metrics(spans)
    ops = sum(len(trace) for trace in traces.values())
    metrics["trace.build_s"] = build_s
    metrics["trace.builds"] = len(traces)
    metrics["trace.build_us_per_op"] = 1e6 * build_s / ops
    metrics["pipeline.vector_ops_frac"] = \
        sum(r.telemetry.value("engine.vector-ops") for r in results) \
        / sum(r.telemetry.value("source.ops") for r in results)
    if predictor != "baseline":
        metrics.update(harness.prediction_quality(results))
    metrics["tracing.overhead_frac"] = \
        statistics.mean(traced) / statistics.mean(plain) - 1.0
    metrics.update(ablation_ladder(run, traces, predictor, reference))
    run.notes["dominant_layer"] = tracing.dominant_layer(metrics)
    run.report_layers(metrics)


def ablation_ladder(run: harness.Run, traces: Dict[str, list],
                    predictor: str,
                    reference: Dict[tuple, int]) -> Dict[str, float]:
    """Profiler-free cross-checks of the traced shares: each rung times
    the same traces with one part of the work switched off or swapped,
    and must produce the same cycles.  The rungs alternate, and each
    rung's time per trace is the fastest of ``ABLATION_ROUNDS``."""
    rungs = (("scalar-baseline", "baseline", {"backend": "scalar"}),
             ("vector-baseline", "baseline", {"backend": "vector"}),
             ("scalar-fvp", "fvp", {"backend": "scalar"}),
             ("scalar-fvp-nostalls", "fvp",
              {"backend": "scalar", "collect_stalls": False}),
             ("list", predictor, {}),
             ("file", predictor, {}))
    seconds = {rung: 0.0 for rung, _, _ in rungs}
    for name in ABLATION_TRACES:
        trace = traces[name]
        path = run.tmp / f"{name}.rvt"
        write_trace_file(trace, str(path))
        fastest: Dict[str, float] = {}
        for _ in range(ABLATION_ROUNDS):
            for rung, rung_predictor, options in rungs:
                source = open_trace(str(path)) if rung == "file" else trace
                try:
                    start = time.perf_counter()
                    result = simulate(source, name, rung_predictor,
                                      **options)
                    elapsed = time.perf_counter() - start
                finally:
                    if rung == "file":
                        source.close()
                fastest[rung] = min(elapsed, fastest.get(rung, elapsed))
                check_result(run, (name, rung_predictor), result, len(trace),
                             reference, options.get("collect_stalls", True))
        for rung, elapsed in fastest.items():
            seconds[rung] += elapsed
    return {
        "ablation.predictor_share":
            1.0 - seconds["scalar-baseline"] / seconds["scalar-fvp"],
        "ablation.vector_speedup":
            seconds["scalar-baseline"] / seconds["vector-baseline"],
        "telemetry.stalls_share":
            1.0 - seconds["scalar-fvp-nostalls"] / seconds["scalar-fvp"],
        "trace.replay_ratio": seconds["file"] / seconds["list"],
    }
