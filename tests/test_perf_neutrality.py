"""The two-loop identity contract (docs/VECTOR.md, docs/PERF.md).

The engine keeps two per-op loop implementations:

* ``_time_trace`` — the scalar loop (``backend="scalar"``),
* ``engine_vector.time_trace_vector`` — the vectorized
  structure-of-arrays loop (``backend="vector"``, run only when asked
  for: the scalar loop is the default).

Every optimization must be invisible in results: the same trace under
the same predictor must produce bit-identical ``SimResult.to_dict()``
output on both, with telemetry collection on or off.  The single
permitted difference is the ``engine.*`` telemetry group, which
*truthfully* reports which backend ran and its vector/fallback
coverage — :func:`_strip_engine_group` removes it before comparing.
This test is the contract the perf work is held to.  Identity alone
cannot catch a change that moves both loops together, so
:func:`test_paper_matrix_cycle_pins` also pins absolute cycle counts,
and tests/test_oracle.py checks the scalar loop against an
independent, cycle-stepped model of the core.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.campaign import build_predictor
from repro.pipeline.config import CoreConfig
from repro.pipeline.engine import BACKENDS, Engine
from repro.trace import build_trace
from repro.trace.workloads import get_profile
from tests.helpers import TRACE_SHAPES, random_trace

REPO = Path(__file__).resolve().parent.parent
LENGTH = 6000
WARMUP = 2000

# One memory-bound and one control-bound workload; the baseline, the
# paper's predictor (which exercises the criticality context), and a
# history-keyed prior-art predictor.
MATRIX = [
    ("mcf", "baseline"),
    ("mcf", "fvp"),
    ("gcc", "vtage"),
    ("gcc", "mr-8kb"),
]


def _strip_engine_group(out: dict) -> dict:
    """Drop the ``engine.*`` telemetry group — the one tree node that
    legitimately differs across backends (it reports which loop ran)."""
    out["telemetry"]["children"].pop("engine", None)
    return out


def _simulate(workload: str, predictor_spec: str, backend: str,
              collect_stalls: bool = True, collect_events: bool = False,
              collect_timing: bool = False, source=None) -> dict:
    trace = build_trace(get_profile(workload), LENGTH)
    config = CoreConfig.skylake()
    predictor = build_predictor(predictor_spec, trace, config)
    engine = Engine(config, predictor, collect_stalls=collect_stalls,
                    collect_events=collect_events,
                    collect_timing=collect_timing, backend=backend)
    result = engine.run(trace if source is None else source(trace),
                        workload=workload, warmup=WARMUP)
    out = _strip_engine_group(result.to_dict())
    if collect_timing:
        out["_timing"] = result.timing
    if collect_events:
        out["_events"] = result.events.to_dict()
    return out


@pytest.mark.parametrize("workload,predictor", MATRIX)
def test_two_loops_match(workload, predictor):
    """Both loops produce identical SimResults."""
    assert _simulate(workload, predictor, "vector") \
        == _simulate(workload, predictor, "scalar")


# Simulated cycles at 100k ops (warmup 40k, skylake) for one
# memory-bound, one control-bound and one mixed workload under no
# prediction, the paper's predictor and a prior-art budget point.  Any
# timing-model change moves at least one of these; update them only in
# a change that means to move cycles, and say so.
PINNED_LENGTH = 100_000
PINNED_WARMUP = 40_000
PINNED_CYCLES = {
    ("mcf", "baseline"): 356376,
    ("mcf", "fvp"): 355918,
    ("mcf", "mr-8kb"): 356376,
    ("gcc", "baseline"): 348249,
    ("gcc", "fvp"): 347792,
    ("gcc", "mr-8kb"): 348249,
    ("omnetpp", "baseline"): 79421,
    ("omnetpp", "fvp"): 74710,
    ("omnetpp", "mr-8kb"): 76365,
}


@pytest.fixture(scope="module")
def pinned_traces():
    return {workload: build_trace(get_profile(workload), PINNED_LENGTH)
            for workload in {workload for workload, _ in PINNED_CYCLES}}


@pytest.mark.parametrize("backend", BACKENDS)
def test_paper_matrix_cycle_pins(backend, pinned_traces):
    """Every loop reproduces the pinned cycle counts (simulator drift
    gate: the two loops agreeing with each other is not enough)."""
    config = CoreConfig.skylake()
    measured = {}
    for workload, spec in PINNED_CYCLES:
        trace = pinned_traces[workload]
        predictor = build_predictor(spec, trace, config)
        result = Engine(config, predictor, backend=backend).run(
            trace, workload=workload, warmup=PINNED_WARMUP)
        measured[(workload, spec)] = result.cycles
    assert measured == PINNED_CYCLES


@pytest.mark.parametrize("backend", BACKENDS)
def test_stall_collection_does_not_change_results(backend):
    """Telemetry stall attribution off vs on: identical timing results.

    The stall buckets themselves are zeroed when collection is off, so
    they are excluded; everything else — cycles, instruction counts,
    predictor outcomes — must match exactly.
    """
    on = _simulate("mcf", "fvp", backend, collect_stalls=True)
    off = _simulate("mcf", "fvp", backend, collect_stalls=False)
    for skip in ("stall_cycles", "warmup_stall_cycles", "telemetry"):
        on.pop(skip, None)
        off.pop(skip, None)
    assert on == off


def test_timing_and_events_match_across_backends():
    """Per-op timing arrays and the event trace are also identical.

    Event collection makes the vector backend delegate to the scalar
    loop (fallback rule 1), so this also pins the delegation seam.
    """
    scalar = _simulate("mcf", "fvp", "scalar",
                       collect_events=True, collect_timing=True)
    vector = _simulate("mcf", "fvp", "vector",
                       collect_events=True, collect_timing=True)
    assert vector["_timing"] == scalar["_timing"]
    assert vector["_events"] == scalar["_events"]
    assert vector == scalar


# ----------------------------------------------------------------------
# Streaming neutrality: the TraceSource chunk seam must be invisible.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk_ops", [1, 7, 4096])
def test_streaming_matches_list_path(chunk_ops, backend):
    """Any chunk size, any loop: identical to the plain-list path.

    Chunk size 1 maximises refill-seam crossings (and, on the vector
    backend, makes every window trivially small), 7 puts the seam at
    awkward offsets, 4096 is the default window — each must be
    bit-identical to handing the engine the raw list.  The only
    permitted difference is the ``source.*`` telemetry group, which
    *truthfully* reports the window shape (chunk count and peak
    window scale with ``chunk_ops``); at the default chunk size even
    that must match.
    """
    from repro.trace.source import DEFAULT_CHUNK_OPS, ListSource

    plain = _simulate("mcf", "fvp", backend)
    chunked = _simulate("mcf", "fvp", backend,
                        source=lambda t: ListSource(t, chunk_ops))
    if chunk_ops == DEFAULT_CHUNK_OPS:
        assert chunked == plain
        return
    stream = chunked["telemetry"]["children"].pop("source")
    expected = plain["telemetry"]["children"].pop("source")
    assert chunked == plain
    assert stream["children"]["ops"]["value"] \
        == expected["children"]["ops"]["value"]
    assert stream["children"]["peak-window"]["value"] <= chunk_ops


@pytest.mark.parametrize("backend", BACKENDS)
def test_file_replay_matches_list_path(backend, tmp_path):
    """build -> write -> mmap replay produces an identical SimResult.

    On the vector backend this exercises the zero-object
    ``SoaWindow.from_records`` decode path against the MicroOp path.
    """
    from repro.trace.io import open_trace, write_trace_file

    path = str(tmp_path / "mcf.rvt")

    def replay(trace):
        write_trace_file(trace, path)
        return open_trace(path)

    plain = _simulate("mcf", "fvp", backend)
    replayed = _simulate("mcf", "fvp", backend, source=replay)
    assert replayed == plain


# ----------------------------------------------------------------------
# Randomized two-loop identity properties.  Adversarial trace shapes
# aimed at the vector backend's seams: store→load aliasing (fallback
# rule 2 firing mid-run), flush-heavy control (redirect state carried
# across the window boundary), and warmup edges landing mid-window.
# ----------------------------------------------------------------------
_RANDOM_SEEDS = (11, 23, 47)


@pytest.mark.parametrize("shape", sorted(TRACE_SHAPES))
@pytest.mark.parametrize("seed", _RANDOM_SEEDS)
def test_two_loop_identity_on_random_traces(shape, seed):
    """Property: random traces of every shape are bit-identical across
    both loops, with the warmup edge at an awkward offset."""
    from repro.trace.source import ListSource

    ops = random_trace(seed, 5000, **TRACE_SHAPES[shape])
    # 1111 lands mid-window for both chunk sizes below.
    warmup = 1111
    first = None
    for backend in BACKENDS:
        for chunk_ops in (1024, 999):
            engine = Engine(CoreConfig.skylake(), None, backend=backend)
            result = engine.run(ListSource(ops, chunk_ops),
                                warmup=warmup)
            out = _strip_engine_group(result.to_dict())
            out["telemetry"]["children"].pop("source")
            if first is None:
                first = out
            else:
                assert out == first, (backend, chunk_ops)


@pytest.mark.parametrize("predictor_spec", ["fvp", "vtage"])
def test_two_loop_identity_on_predictor_heavy_random_trace(
        predictor_spec):
    """Property: with a hosted predictor (vector delegates, rule 1),
    random aliasing-heavy traces still agree across all backends."""
    ops = random_trace(7, 4000, **TRACE_SHAPES["aliasing"])
    config = CoreConfig.skylake()
    first = None
    for backend in BACKENDS:
        predictor = build_predictor(predictor_spec, ops, config)
        result = Engine(config, predictor, backend=backend).run(
            ops, warmup=1000)
        out = _strip_engine_group(result.to_dict())
        if first is None:
            first = out
        else:
            assert out == first, backend


def test_million_op_streaming_run_is_rss_bounded(tmp_path):
    """A 1M-op trace-file replay completes under a 256 MB RSS budget.

    The whole point of the streaming redesign: peak resident state is
    one decode window, not the trace.  The child process generates the
    trace straight to disk (ProfileSource), replays it mmap-backed on
    the scalar loop and then on the vector loop, and reports its
    own peak RSS; the budget is the acceptance criterion from the
    redesign, with the generous margin covering the interpreter
    baseline.
    """
    script = textwrap.dedent("""
        import resource, sys
        from repro.pipeline.engine import simulate
        from repro.trace.builder import stream_trace
        from repro.trace.io import open_trace, write_trace_file
        from repro.trace.workloads import get_profile

        path = sys.argv[1]
        count = write_trace_file(
            stream_trace(get_profile("mcf"), 1_000_000), path)
        assert count >= 1_000_000, count
        with open_trace(path) as source:
            scalar = simulate(source, warmup=40_000, backend="scalar")
            vector = simulate(source, warmup=40_000, backend="vector")
        assert scalar.cycles == vector.cycles > 0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            peak_kb //= 1024
        print(peak_kb)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "big.rvt")],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert proc.returncode == 0, proc.stderr
    peak_kb = int(proc.stdout.strip())
    assert peak_kb < 256 * 1024, \
        f"peak RSS {peak_kb / 1024:.1f} MB exceeds the 256 MB budget"
