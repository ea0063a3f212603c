"""Tests of the benchmark itself: ``pytest bench/``.

The workloads run at a tiny internal scale.  The assertions are about the
benchmark's contract (every metric reported, valid names, a passing
tracer self-check), not about performance.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """The benchmark's modules, imported after bootstrap, shrunk to a
    tiny scale; process state is restored afterwards."""
    environ, cwd, path = dict(os.environ), os.getcwd(), list(sys.path)
    out_dir = tmp_path_factory.mktemp("out")
    bench_run.bootstrap(out_dir)
    import harness
    import workload_figures
    import workload_service
    import workload_sim

    patches = [
        (workload_sim, "TRACES", ("mcf", "omnetpp")),
        (workload_sim, "LENGTH", 4_000),
        (workload_sim, "SETUPS", 1),
        (workload_sim, "ABLATION_TRACES", ("omnetpp",)),
        (workload_sim, "ABLATION_ROUNDS", 1),
        (workload_figures, "LENGTH", 3_000),
        (workload_figures, "SETUPS", 1),
        (workload_service, "WORKLOADS", ("mcf", "omnetpp")),
        (workload_service, "HIT_LENGTH", 3_000),
        (workload_service, "MISS_LENGTH", 2_000),
        (workload_service, "MISS_EVERY", 2),
        (workload_service, "SETUPS", 1),
    ]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patches]
    for module, name, value in patches:
        setattr(module, name, value)
    runners = bench_run.workloads()

    def run_one(workload: str, traced: bool):
        run = harness.Run(workload, 7, 1.0, traced, out_dir)
        try:
            runners[workload](run)
        finally:
            run.cleanup()
        return run

    yield run_one
    for module, name, value in saved:
        setattr(module, name, value)
    os.environ.clear()
    os.environ.update(environ)
    os.chdir(cwd)
    sys.path[:] = path
    tempfile.tempdir = None


def test_benchmark_json_follows_the_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert SPEC["command"][0] == "python3"
    assert all((ROOT / path).is_dir() for path in SPEC["paths"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for kind in ("workloads", "end_to_end",
                                        "per_layer") for entry in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_recorded_spreads_fit_their_bounds():
    """In both recorded sets of runs over ten seeds, every (workload,
    end-to-end metric) has a quartile spread within its bound, so
    compare.py can resolve it."""
    sets = json.loads((BENCH / "spreads.json").read_text(encoding="utf-8"))
    assert len(sets) == 2
    for recorded in sets:
        assert sorted(recorded) == sorted(WORKLOADS)
        for metric in SPEC["end_to_end"]:
            for workload in WORKLOADS:
                entry = recorded[workload][metric["name"]]
                assert entry["runs"] >= 10
                assert entry["spread"] <= metric["bound"], (workload, metric)


@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(bench, workload, traced):
    run = bench(workload, traced)
    result = run.result()
    assert run.failures == []
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if traced else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(value) for value in values.values())
    if not traced:
        assert all(value > 0 for value in values.values())
        return
    shares = sum(value for name, value in values.items()
                 if name.endswith(".share"))
    assert 0 < shares <= 1.0 + 1e-9
    assert run.notes["dominant_layer"]
    exercised = {"sim-fvp": "predictors.calls",
                 "sim-baseline": "memory.calls",
                 "figures-cold": "experiments.calls",
                 "service-mixed": "service.calls"}[workload]
    assert values[exercised] > 0


def test_tracer_wraps_slotted_classes_and_restores(tmp_path):
    import tracing

    class Slotted:
        __slots__ = ("n",)

        def __init__(self):
            self.n = 0

        def outer(self):
            self.inner()
            return self.inner()

        def inner(self):
            self.n += 1
            return self.n

    original = Slotted.outer
    tracer = tracing.Tracer("unit", tmp_path)
    tracer.wrap(Slotted, "outer", "memory.outer", keep=True)
    tracer.wrap(Slotted, "inner", "memory.inner")
    try:
        assert Slotted().outer() == 2
    finally:
        tracer.restore()
    assert Slotted.outer is original and "inner" in vars(Slotted)
    tracer.flush()
    spans = tracing.SpanSet(tracing.collect(tmp_path, "unit"))
    (outer,) = spans.kept
    inner = spans.named("memory.inner")
    assert inner["calls"] == 2
    assert outer["self"] == pytest.approx(
        outer["end"] - outer["start"] - inner["total"])
    assert spans.layers()["memory"]["calls"] == 1
    assert spans.calls_under(outer["id"]) == {"memory.inner": 2}


def test_compare_verdicts(tmp_path):
    import compare

    def write(directory, seed, value):
        directory.mkdir(exist_ok=True)
        record = {"workload": "sim-fvp", "seed": seed, "result": {
            "metrics": {"request_p50_ms": {"value": value, "unit": "ms"}}}}
        (directory / f"sim-fvp.seed{seed}.trace0.json").write_text(
            json.dumps(record))

    for seed in range(10):
        write(tmp_path / "parent", seed, 100.0 + seed % 3)
        write(tmp_path / "faster", seed, 80.0 + seed % 3)
        write(tmp_path / "slower", seed, 140.0 + seed % 3)
        write(tmp_path / "same", seed, 100.0 + (seed + 1) % 3)
    parent = compare.load(tmp_path / "parent")
    key = ("sim-fvp", "request_p50_ms")
    spec = next(metric for metric in SPEC["end_to_end"]
                if metric["name"] == "request_p50_ms")
    for other, want in (("faster", "improved"), ("slower", "regressed"),
                        ("same", "no-worse")):
        row = compare.verdict(spec, parent[key],
                              compare.load(tmp_path / other)[key])
        assert row["verdict"] == want


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
