"""Simulator performance benchmark (`repro bench`).

Runs a fixed matrix of (workload x predictor) simulation jobs and
reports *simulator* throughput — sim-kilo-instructions per second
(sim-KIPS) — plus peak RSS, seeding the repo's performance trajectory
(the ``BENCH_<date>.json`` files; see docs/PERF.md).

Three throughput numbers are measured per cell — one per engine
timing-loop backend (docs/VECTOR.md):

* ``sim_kips`` — the fast scalar loop (``backend="scalar"``), the
  historical hot path every baseline was recorded against.
* ``slow_kips`` — the reference per-op loop (``backend="reference"``)
  the optimized paths are verified against.
* ``vector_kips`` — the numpy SoA batch loop (``backend="vector"``);
  skipped automatically when numpy is unavailable.

The ratios are machine-*independent*: all sides run in the same
process on the same machine moments apart, so they survive CI runner
variance where raw KIPS would not.  ``speedup`` is scalar-vs-reference
(gated against the committed baseline as before) and
``vector_speedup`` is vector-vs-scalar.  The regression gate
(``repro bench --check``) compares the geomean speedup and the
simulated cycle counts against ``benchmarks/perf_baseline.json`` —
a >20% speedup regression or *any* cycle-count drift fails — and
additionally applies two absolute vector gates: cells the vector
backend actually vectorizes (``vectorized: true``) must keep a
geomean ``vector_speedup`` of at least :data:`VECTOR_MIN_SPEEDUP`,
and the all-cells geomean (which includes fully-delegated and
fallback-heavy cells) must stay above
:data:`VECTOR_OVERHEAD_FLOOR` — the vector backend may fall back to
the scalar loop, but falling back must stay nearly free.  Raw KIPS
are recorded for trend reading but never gated on.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: Default bench matrix: one memory-bound, one control-bound, and one
#: mixed workload, against no prediction, the paper's predictor, and a
#: prior-art budget point.  Small enough for CI, varied enough that an
#: optimization helping only one op class shows up.
DEFAULT_WORKLOADS = ("mcf", "gcc", "omnetpp")
DEFAULT_PREDICTORS = ("baseline", "fvp", "mr-8kb")
DEFAULT_LENGTH = 100_000
DEFAULT_REPEATS = 3

#: Fractional tolerance of the --check regression gate.
CHECK_TOLERANCE = 0.20

#: Geomean vector-vs-scalar floor over cells the vector backend
#: actually vectorizes.  Conservative: measured speedups on
#: vector-eligible workloads are 1.2-1.3x in-memory (higher on file
#: replay), but CI runners are noisy.
VECTOR_MIN_SPEEDUP = 1.05

#: Geomean vector-vs-scalar floor over *all* cells, including
#: fully-delegated (predictor-overriding) and fallback-heavy ones —
#: bounds the cost of taking the vector path and falling back.
VECTOR_OVERHEAD_FLOOR = 0.90

#: Default location of the committed baseline, relative to the repo root.
BASELINE_PATH = os.path.join("benchmarks", "perf_baseline.json")


def _default_warmup(length: int) -> int:
    from repro.experiments.runner import default_warmup

    return default_warmup(length)


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None when the
    platform has no resource module, e.g. Windows)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        usage //= 1024
    return usage


def _run_once(trace, config, predictor_spec: str, workload: str,
              warmup: int, backend: str) -> Tuple[float, int, int]:
    """One timed simulation under ``backend``; returns
    ``(seconds, cycles, vectorized_ops)``.

    A fresh predictor is built per run (predictor instances are
    single-simulation; see ``ValuePredictor``) and only the engine run
    is timed — trace construction is deterministic and not part of
    simulator throughput.  The explicit ``backend=`` pin outranks
    ``REPRO_ENGINE_BACKEND``, so the bench measures what it says
    regardless of the environment.
    """
    from repro.experiments.campaign import build_predictor
    from repro.pipeline.engine import Engine

    predictor = build_predictor(predictor_spec, trace, config)
    engine = Engine(config, predictor, backend=backend)
    start = time.perf_counter()
    result = engine.run(trace, workload=workload, warmup=warmup)
    return time.perf_counter() - start, result.cycles, engine._vec_ops


def _time_cell(trace, config, predictor_spec: str, workload: str,
               warmup: int, repeats: int, measure_slow: bool,
               measure_vector: bool
               ) -> Tuple[float, Optional[float], Optional[float],
                          int, int]:
    """Best-of-``repeats`` wall time for one cell.

    Returns ``(scalar_seconds, slow_seconds_or_None,
    vector_seconds_or_None, cycles, vectorized_ops)``.  The backends
    are *interleaved* within each repeat so machine-load drift hits
    every side equally — the speedup ratios are what the regression
    gate consumes, and back-to-back pairing is what keeps them stable.
    Any cycle-count divergence between backends is a fatal identity
    violation (the three-loop contract, docs/VECTOR.md)."""
    best_scalar = math.inf
    best_slow = math.inf
    best_vector = math.inf
    cycles = 0
    vec_ops = 0
    for _ in range(repeats):
        scalar_s, cycles, _ = _run_once(
            trace, config, predictor_spec, workload, warmup, "scalar")
        best_scalar = min(best_scalar, scalar_s)
        if measure_slow:
            slow_s, slow_cycles, _ = _run_once(
                trace, config, predictor_spec, workload, warmup,
                "reference")
            best_slow = min(best_slow, slow_s)
            if slow_cycles != cycles:
                raise SimulationError(
                    f"result divergence on {workload}/{predictor_spec}: "
                    f"scalar loop {cycles} cycles vs reference loop "
                    f"{slow_cycles} — the engine loops are no longer "
                    "result-neutral")
        if measure_vector:
            vector_s, vector_cycles, vec_ops = _run_once(
                trace, config, predictor_spec, workload, warmup,
                "vector")
            best_vector = min(best_vector, vector_s)
            if vector_cycles != cycles:
                raise SimulationError(
                    f"result divergence on {workload}/{predictor_spec}: "
                    f"scalar loop {cycles} cycles vs vector loop "
                    f"{vector_cycles} — the engine loops are no longer "
                    "result-neutral")
    return (best_scalar,
            best_slow if measure_slow else None,
            best_vector if measure_vector else None,
            cycles, vec_ops)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (1.0 for an empty sequence)."""
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_bench(workloads: Sequence[str] = DEFAULT_WORKLOADS,
              predictors: Sequence[str] = DEFAULT_PREDICTORS,
              length: int = DEFAULT_LENGTH,
              warmup: Optional[int] = None,
              repeats: int = DEFAULT_REPEATS,
              core: str = "skylake",
              measure_slow: bool = True,
              measure_vector: Optional[bool] = None,
              progress=None,
              seed: Optional[int] = None,
              trace_file: Optional[str] = None) -> Dict:
    """Run the bench matrix and return the report dictionary.

    Parameters
    ----------
    workloads / predictors:
        The matrix axes; every (workload, predictor) pair is one cell.
    length / warmup:
        Trace length in micro-ops and the warmup prefix (default: the
        runner's standard 40% heuristic).
    repeats:
        Per-cell repeats; the *best* time is kept (the standard
        wall-clock benchmarking defence against scheduler noise).
    measure_slow:
        Also time each cell under the reference slow path and report
        the machine-independent speedup ratio.
    measure_vector:
        Also time each cell under the vector (numpy SoA) backend and
        report ``vector_kips``/``vector_speedup``; ``None`` (the
        default) auto-detects numpy and skips the column without it.
    progress:
        Optional callable invoked with a one-line message per cell.
    seed:
        Optional trace-generation seed override (reseeds every
        workload profile); ignored when ``trace_file`` is given.
    trace_file:
        Replay this v2 trace file (mmap-backed, bounded RSS) instead
        of generating traces.  Requires exactly one workload, and
        ``length`` is taken from the file's header.
    """
    from repro.errors import ConfigError
    from repro.experiments.runner import core_config
    from repro.pipeline.engine import _HAVE_NUMPY
    from repro.trace import build_trace
    from repro.trace.io import open_trace, trace_file_length
    from repro.trace.workloads import get_profile, reseeded

    if measure_vector is None:
        measure_vector = _HAVE_NUMPY
    if trace_file is not None:
        if len(workloads) != 1:
            raise ConfigError(
                "trace_file requires exactly one workload (the label "
                "the replayed trace is benchmarked under)")
        length = trace_file_length(trace_file)
    if warmup is None:
        warmup = _default_warmup(length)
    config = core_config(core)

    cells: List[Dict] = []
    for workload in workloads:
        if trace_file is not None:
            trace = open_trace(trace_file)
        else:
            profile = get_profile(workload)
            if seed is not None:
                profile = reseeded(profile, seed)
            trace = build_trace(profile, length)
        n = len(trace)
        for predictor in predictors:
            fast_s, slow_s, vector_s, cycles, vec_ops = _time_cell(
                trace, config, predictor, workload, warmup, repeats,
                measure_slow=measure_slow, measure_vector=measure_vector)
            cell = {
                "workload": workload,
                "predictor": predictor,
                "ops": n,
                "cycles": cycles,
                "sim_kips": round(n / fast_s / 1e3, 2),
            }
            if measure_slow:
                cell["slow_kips"] = round(n / slow_s / 1e3, 2)
                cell["speedup"] = round(slow_s / fast_s, 3)
            if measure_vector:
                cell["vector_kips"] = round(n / vector_s / 1e3, 2)
                cell["vector_speedup"] = round(fast_s / vector_s, 3)
                cell["vectorized"] = vec_ops > 0
            cells.append(cell)
            if progress is not None:
                line = (f"{workload}/{predictor}: "
                        f"{cell['sim_kips']:.0f} KIPS")
                if measure_slow:
                    line += (f" ({cell['speedup']:.2f}x vs slow path)")
                if measure_vector:
                    line += (f" (vector {cell['vector_speedup']:.2f}x"
                             + ("" if cell["vectorized"]
                                else ", fell back") + ")")
                progress(line)
        if trace_file is not None:
            trace.close()

    report = {
        "schema": 2,
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "matrix": {
            "workloads": list(workloads),
            "predictors": list(predictors),
            "length": length,
            "warmup": warmup,
            "repeats": repeats,
            "core": core,
            "seed": seed,
            "trace_file": trace_file,
        },
        "cells": cells,
        "geomean_kips": round(geomean([c["sim_kips"] for c in cells]), 2),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if measure_slow:
        report["geomean_speedup"] = round(
            geomean([c["speedup"] for c in cells]), 3)
    if measure_vector:
        report["geomean_vector_speedup"] = round(
            geomean([c["vector_speedup"] for c in cells]), 3)
        vectorized = [c["vector_speedup"] for c in cells
                      if c["vectorized"]]
        if vectorized:
            report["geomean_vector_speedup_vectorized"] = round(
                geomean(vectorized), 3)
    return report


# ----------------------------------------------------------------------
# Baseline comparison and the regression gate.
# ----------------------------------------------------------------------
def load_baseline(path: str = BASELINE_PATH) -> Optional[Dict]:
    """The committed baseline report, or None when absent."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare_to_baseline(report: Dict, baseline: Dict) -> Dict:
    """Compare a fresh report against the committed baseline.

    Returns a dict with the KIPS trend (informational: raw KIPS are
    machine-dependent), the speedup-ratio trend (gateable), and any
    cycle-count mismatches (result drift — always a failure).
    """
    base_cells = {(c["workload"], c["predictor"]): c
                  for c in baseline.get("cells", ())}
    kips_ratios: List[float] = []
    speedup_ratios: List[float] = []
    cycle_mismatches: List[str] = []
    missing: List[str] = []
    for cell in report["cells"]:
        key = (cell["workload"], cell["predictor"])
        base = base_cells.get(key)
        if base is None:
            missing.append("/".join(key))
            continue
        kips_ratios.append(cell["sim_kips"] / base["sim_kips"])
        if "speedup" in cell and "speedup" in base:
            speedup_ratios.append(cell["speedup"] / base["speedup"])
        if cell["cycles"] != base["cycles"] and cell["ops"] == base["ops"]:
            cycle_mismatches.append(
                f"{'/'.join(key)}: {cell['cycles']} != {base['cycles']}")
    return {
        "baseline_date": baseline.get("date"),
        "kips_vs_baseline": round(geomean(kips_ratios), 3),
        "speedup_vs_baseline": round(geomean(speedup_ratios), 3),
        "cycle_mismatches": cycle_mismatches,
        "cells_missing_from_baseline": missing,
    }


def check_regression(comparison: Dict,
                     tolerance: float = CHECK_TOLERANCE,
                     report: Optional[Dict] = None) -> List[str]:
    """Failure messages for the CI gate (empty = pass).

    Gates on the machine-independent speedup ratio and on cycle-count
    drift; raw KIPS are reported but never gated (CI runners vary far
    more than any real regression).  When the fresh ``report`` is
    supplied and carries vector numbers, the two absolute vector gates
    apply as well: :data:`VECTOR_MIN_SPEEDUP` over vectorized cells
    and :data:`VECTOR_OVERHEAD_FLOOR` over all cells (both
    vector-vs-scalar, so no baseline entry is needed).
    """
    failures: List[str] = []
    if comparison["cycle_mismatches"]:
        failures.append("simulated cycle counts drifted from baseline: "
                        + "; ".join(comparison["cycle_mismatches"]))
    ratio = comparison["speedup_vs_baseline"]
    if ratio < 1.0 - tolerance:
        failures.append(
            f"fast-path speedup regressed to {ratio:.2f}x of the "
            f"baseline (tolerance {1 - tolerance:.2f}x)")
    if report is not None:
        vectorized = report.get("geomean_vector_speedup_vectorized")
        if vectorized is not None and vectorized < VECTOR_MIN_SPEEDUP:
            failures.append(
                f"vector backend geomean speedup {vectorized:.2f}x on "
                f"vectorized cells is below the "
                f"{VECTOR_MIN_SPEEDUP:.2f}x floor")
        overall = report.get("geomean_vector_speedup")
        if overall is not None and overall < VECTOR_OVERHEAD_FLOOR:
            failures.append(
                f"vector backend geomean {overall:.2f}x across all "
                f"cells is below the {VECTOR_OVERHEAD_FLOOR:.2f}x "
                "floor — fallback/delegation overhead regressed")
    return failures


def check_rss(report: Dict, budget_mb: int) -> Optional[str]:
    """Failure message when the bench run's peak RSS exceeded
    ``budget_mb`` MiB, else ``None`` (the ``--rss-budget`` CI gate).

    Returns a failure string (not raising) so the CLI can print it
    alongside the regression-gate output; a platform without RSS
    accounting (no ``resource`` module) passes vacuously.
    """
    peak_kb = report.get("peak_rss_kb")
    if peak_kb is None:
        return None
    budget_kb = budget_mb * 1024
    if peak_kb > budget_kb:
        return (f"peak RSS {peak_kb / 1024:.1f} MiB exceeded the "
                f"{budget_mb} MiB budget")
    return None


def write_report(report: Dict, output: Optional[str] = None) -> str:
    """Write ``BENCH_<date>.json`` (or ``output``); returns the path."""
    path = output or f"BENCH_{report['date']}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def format_report(report: Dict, comparison: Optional[Dict] = None) -> str:
    """Human-readable bench table for the CLI."""
    lines = [f"{'workload':<12} {'predictor':<12} {'sim KIPS':>10} "
             f"{'slow KIPS':>10} {'speedup':>8} {'vec KIPS':>10} "
             f"{'vec spd':>8}"]
    for cell in report["cells"]:
        slow = cell.get("slow_kips")
        speed = cell.get("speedup")
        vec = cell.get("vector_kips")
        vec_speed = cell.get("vector_speedup")
        vec_col = "-" if vec_speed is None else (
            f"{vec_speed:.2f}x" + ("" if cell.get("vectorized") else "*"))
        lines.append(
            f"{cell['workload']:<12} {cell['predictor']:<12} "
            f"{cell['sim_kips']:>10.1f} "
            f"{slow if slow is not None else '-':>10} "
            f"{f'{speed:.2f}x' if speed is not None else '-':>8} "
            f"{vec if vec is not None else '-':>10} "
            f"{vec_col:>8}")
    if any("vectorized" in c and not c["vectorized"]
           for c in report["cells"]):
        lines.append("  (* = vector backend fell back to the scalar "
                     "loop for every window)")
    lines.append(f"geomean sim throughput: {report['geomean_kips']:.1f} KIPS")
    if "geomean_speedup" in report:
        lines.append("geomean fast-path speedup: "
                     f"{report['geomean_speedup']:.2f}x vs slow path")
    if "geomean_vector_speedup" in report:
        line = ("geomean vector speedup: "
                f"{report['geomean_vector_speedup']:.2f}x vs scalar")
        if "geomean_vector_speedup_vectorized" in report:
            line += (f" ({report['geomean_vector_speedup_vectorized']:.2f}x"
                     " on vectorized cells)")
        lines.append(line)
    if report.get("peak_rss_kb") is not None:
        lines.append(f"peak RSS: {report['peak_rss_kb'] / 1024:.1f} MiB")
    if comparison is not None:
        lines.append(
            f"vs baseline ({comparison['baseline_date']}): "
            f"KIPS {comparison['kips_vs_baseline']:.2f}x, "
            f"speedup ratio {comparison['speedup_vs_baseline']:.2f}x")
        for mismatch in comparison["cycle_mismatches"]:
            lines.append(f"  CYCLE DRIFT: {mismatch}")
    return "\n".join(lines)
