"""Unit tests for the vector engine backend (docs/VECTOR.md): backend
resolution, eligibility/fallback/delegation telemetry, and
the structure-of-arrays window view.

The two-loop *identity* contract itself lives in
``tests/test_perf_neutrality.py``; this module covers the machinery
around it — which loop runs, what it truthfully reports, and that the
SoA columns are an exact view of the MicroOp stream.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.errors import ConfigError
from repro.experiments.campaign import build_predictor
from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline import engine as engine_module
from repro.pipeline.config import CoreConfig
from repro.pipeline.engine import BACKENDS, Engine, simulate
from repro.trace import build_trace
from repro.trace.io import open_trace, write_trace_file
from repro.trace.soa import SoaWindow
from repro.trace.source import ListSource
from repro.trace.workloads import get_profile

LENGTH = 4000
WARMUP = 1000


def _engine(backend=None, **kwargs):
    return Engine(CoreConfig.skylake(), backend=backend, **kwargs)


def _run(workload, predictor_spec, backend="vector", **engine_kwargs):
    trace = build_trace(get_profile(workload), LENGTH)
    config = CoreConfig.skylake()
    predictor = build_predictor(predictor_spec, trace, config)
    engine = Engine(config, predictor, backend=backend, **engine_kwargs)
    return engine.run(trace, workload=workload, warmup=WARMUP)


def _engine_stat(result, name):
    return result.telemetry.value(f"engine.{name}")


class TestBackendResolution:
    def test_default_is_scalar_with_numpy_importable(self):
        assert _engine()._resolve_backend() == "scalar"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_constructor_selects_backend(self, backend):
        assert _engine(backend=backend)._resolve_backend() == backend

    def test_constructor_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="backend"):
            _engine(backend="turbo")

    def test_retired_reference_backend_is_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            _engine(backend="reference")
        assert "'scalar'" in str(excinfo.value)
        assert "'vector'" in str(excinfo.value)

    def test_vector_without_numpy_is_a_config_error(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_HAVE_NUMPY", False)
        assert _engine()._resolve_backend() == "scalar"
        with pytest.raises(ConfigError, match="numpy"):
            _engine(backend="vector")._resolve_backend()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_simulate_backend_passthrough(self, backend):
        trace = build_trace(get_profile("mcf"), LENGTH)
        result = simulate(trace, config=CoreConfig.skylake(),
                          warmup=WARMUP, backend=backend)
        codes = {"scalar": 1, "vector": 2}  # 0 is retired, never reused
        assert _engine_stat(result, "backend") == codes[backend]

    def test_scalar_backend_reports_zero_vector_coverage(self):
        result = _run("mcf", "baseline", backend="scalar")
        assert _engine_stat(result, "vector-ops") == 0
        assert _engine_stat(result, "vector-windows") == 0
        assert _engine_stat(result, "delegated") == 0


class TestVectorTelemetry:
    def test_counters_account_for_every_op(self):
        # build_trace completes whole kernel iterations, so compare
        # against the delivered op count, not the requested LENGTH.
        result = _run("mcf", "baseline")
        assert _engine_stat(result, "delegated") == 0
        assert (_engine_stat(result, "vector-ops")
                + _engine_stat(result, "fallback-ops")) \
            == result.telemetry.value("source.ops")
        assert _engine_stat(result, "vector-ops") > 0

    def test_predictor_hooks_force_whole_run_delegation(self):
        result = _run("mcf", "fvp")
        assert _engine_stat(result, "delegated") == 1
        assert _engine_stat(result, "vector-ops") == 0
        assert _engine_stat(result, "fallback-ops") == 0

    def test_event_collection_forces_delegation(self):
        result = _run("mcf", "baseline", collect_events=True)
        assert _engine_stat(result, "delegated") == 1

    def test_aliasing_windows_fall_back_per_window(self):
        # omnetpp's pointer-chasing mix aliases stores against loads
        # within nearly every window, so the run stays on the vector
        # path (not delegated) but the windows themselves fall back.
        result = _run("omnetpp", "baseline")
        assert _engine_stat(result, "delegated") == 0
        assert _engine_stat(result, "fallback-windows") >= 1
        assert (_engine_stat(result, "vector-ops")
                + _engine_stat(result, "fallback-ops")) \
            == result.telemetry.value("source.ops")


def _sample_ops():
    """A small hand-built window exercising every column: ALU ops, a
    store/load pair on the same 8-byte block, and a taken branch."""
    return [
        MicroOp(0x1000, opcodes.ALU, dest=1, srcs=(2, 3), value=7),
        MicroOp(0x1004, opcodes.STORE, srcs=(1, 4), value=7,
                addr=0x2000),
        MicroOp(0x1008, opcodes.LOAD, dest=5, srcs=(4,), value=7,
                addr=0x2004),
        MicroOp(0x100C, opcodes.BRANCH, srcs=(5,), taken=True,
                target=0x1000),
        MicroOp(0x1000, opcodes.NOP),
    ]


class TestSoaWindow:
    def test_from_microops_is_lazy_until_load_columns(self):
        ops = _sample_ops()
        window = SoaWindow.from_microops(ops)
        # Only the eligibility-probe arrays are built eagerly.
        assert window.dests is None and window.values is None
        assert window.op_array.tolist() == [u.op for u in ops]
        assert window.addr_array.tolist() == [
            -1 if u.addr is None else u.addr for u in ops]
        window.load_columns()
        assert window.pcs == [u.pc for u in ops]
        assert window.dests == [-1 if u.dest is None else u.dest
                                for u in ops]
        assert window.srcs == [u.srcs for u in ops]
        assert window.values == [u.value for u in ops]
        assert window.takens == [u.taken for u in ops]
        assert window.targets == [u.target for u in ops]

    def test_to_microops_returns_original_sequence(self):
        ops = _sample_ops()
        assert SoaWindow.from_microops(ops).to_microops() is ops

    def test_from_records_matches_from_microops(self, tmp_path):
        # The zero-object v2-record decode and the attribute-read path
        # must produce identical columns for the same ops.
        trace = build_trace(get_profile("gcc"), 512)
        path = str(tmp_path / "gcc.rvt")
        write_trace_file(trace, path)
        with open_trace(path) as source:
            file_windows = list(source.soa_windows())
        list_windows = [w.load_columns()
                        for w in ListSource(trace).soa_windows()]
        assert len(file_windows) == len(list_windows)
        for decoded, built in zip(file_windows, list_windows):
            decoded.load_columns()
            for column in ("ops", "pcs", "dests", "srcs", "values",
                           "addrs", "mem_sizes", "takens", "targets"):
                assert getattr(decoded, column) == \
                    getattr(built, column), column

    def test_from_records_to_microops_round_trip(self, tmp_path):
        trace = build_trace(get_profile("mcf"), 256)
        path = str(tmp_path / "mcf.rvt")
        write_trace_file(trace, path)
        with open_trace(path) as source:
            window = next(iter(source.soa_windows()))
        rebuilt = window.to_microops()
        for original, copy in zip(trace, rebuilt):
            for field in MicroOp.__slots__:
                assert getattr(original, field) == \
                    getattr(copy, field), field

    def test_index_helpers(self):
        window = SoaWindow.from_microops(_sample_ops())
        assert window.memory_indices() == [1, 2]
        assert window.control_indices() == [3]
        # line_change_indices reads pc_array, which is a deferred
        # column — exactly the order the vector backend uses it in.
        window.load_columns()
        # PCs 0x1000..0x100C share one 64-byte line; a carry line of -1
        # marks the first op as a line change.
        assert window.line_change_indices(64, -1) == [0]
        assert window.line_change_indices(64, 0x1000 // 64) == []

    def test_aliases_stores_probe(self):
        window = SoaWindow.from_microops(_sample_ops())
        # In-window store 0x2000 and load 0x2004 share an 8-byte block.
        assert window.aliases_stores([]) is True
        no_store = SoaWindow.from_microops([
            MicroOp(0x1000, opcodes.LOAD, dest=1, srcs=(2,),
                    addr=0x3000)])
        assert no_store.aliases_stores([]) is False
        assert no_store.aliases_stores([0x3004]) is True
        assert no_store.aliases_stores([0x4000]) is False
        loadless = SoaWindow.from_microops(
            [MicroOp(0x1000, opcodes.ALU, dest=1)])
        assert loadless.aliases_stores([0x3000]) is False
