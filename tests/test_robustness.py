"""Tests for the robustness layer outside the campaign engine: the
error taxonomy, config validation, the engine's ``max_cycles``
watchdog, the opt-in invariant checker, cache quarantine, gap-tolerant
suites, and the ``repro doctor`` self-check (docs/ROBUSTNESS.md)."""

import json

import pytest

from repro import errors
from repro.analysis.metrics import SuiteResult
from repro.analysis.reporting import format_suite
from repro.cli import main
from repro.errors import (
    RETRYABLE,
    ConfigError,
    InvariantViolation,
    JobTimeout,
    NonTerminatingSimulation,
    ReproError,
    SimulationError,
    TransientError,
    WorkerCrash,
    taxonomy_name,
)
from repro.experiments.campaign import ResultCache
from repro.experiments.runner import Runner
from repro.pipeline.config import CoreConfig, PortGroup
from repro.pipeline.engine import Engine, simulate
from repro.trace.builder import build_trace
from repro.trace.workloads import get_profile

LENGTH = 2000
WARMUP = 500


def make_trace(workload="astar", length=LENGTH):
    return build_trace(get_profile(workload), length)


# ----------------------------------------------------------------------
# Error taxonomy.
# ----------------------------------------------------------------------
class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(ConfigError, ReproError)
        assert issubclass(ConfigError, ValueError)
        assert issubclass(NonTerminatingSimulation, SimulationError)
        assert issubclass(InvariantViolation, SimulationError)
        assert issubclass(TransientError, SimulationError)
        for cls in (WorkerCrash, JobTimeout, errors.CacheCorruption,
                    errors.CampaignError):
            assert issubclass(cls, ReproError)

    def test_retryable_set(self):
        assert set(RETRYABLE) == {JobTimeout, WorkerCrash, TransientError}
        assert ConfigError not in RETRYABLE  # deterministic: never retry

    def test_taxonomy_name(self):
        assert taxonomy_name(JobTimeout("x")) == "JobTimeout"
        assert taxonomy_name(KeyError("x")) == "SimulationError"

    def test_nonterminating_carries_snapshot(self):
        exc = NonTerminatingSimulation("boom", {"cycle": 7})
        assert exc.snapshot == {"cycle": 7}
        assert NonTerminatingSimulation("boom").snapshot == {}


# ----------------------------------------------------------------------
# Config validation.
# ----------------------------------------------------------------------
class TestConfigValidation:
    def test_first_class_configs_valid(self):
        CoreConfig.skylake().validate()
        CoreConfig.skylake_2x().validate()

    @pytest.mark.parametrize("field", [
        "fetch_width", "retire_width", "issue_width",
        "rob_size", "lq_size", "sq_size", "iq_size",
    ])
    def test_zero_width_rejected(self, field):
        cfg = CoreConfig.skylake()
        kwargs = {name: getattr(cfg, name) for name in
                  ("name", "fetch_width", "retire_width", "issue_width",
                   "rob_size", "lq_size", "sq_size", "iq_size", "ports")}
        kwargs[field] = 0
        with pytest.raises(ConfigError):
            CoreConfig(**kwargs)

    @pytest.mark.parametrize("field", ["lq_size", "sq_size", "iq_size"])
    def test_queue_deeper_than_rob_rejected(self, field):
        cfg = CoreConfig.skylake()
        kwargs = {name: getattr(cfg, name) for name in
                  ("name", "fetch_width", "retire_width", "issue_width",
                   "rob_size", "lq_size", "sq_size", "iq_size", "ports")}
        kwargs[field] = kwargs["rob_size"] + 1
        with pytest.raises(ConfigError, match="exceeds rob_size"):
            CoreConfig(**kwargs)

    def test_negative_penalty_rejected(self):
        cfg = CoreConfig.skylake()
        with pytest.raises(ConfigError, match="vp_penalty"):
            CoreConfig("bad", cfg.fetch_width, cfg.retire_width,
                       cfg.issue_width, cfg.rob_size, cfg.lq_size,
                       cfg.sq_size, cfg.iq_size, cfg.ports,
                       vp_penalty=-1)

    def test_missing_port_class_rejected(self):
        cfg = CoreConfig.skylake()
        ports = dict(cfg.ports)
        from repro.isa import opcodes
        del ports[opcodes.LOAD]
        with pytest.raises(ConfigError, match="ports missing"):
            CoreConfig("bad", cfg.fetch_width, cfg.retire_width,
                       cfg.issue_width, cfg.rob_size, cfg.lq_size,
                       cfg.sq_size, cfg.iq_size, ports)

    def test_config_error_is_value_error(self):
        # Pre-taxonomy callers caught ValueError; keep them working.
        with pytest.raises(ValueError):
            PortGroup(0, 1)


# ----------------------------------------------------------------------
# max_cycles watchdog.
# ----------------------------------------------------------------------
class TestMaxCycles:
    def test_runaway_budget_aborts_with_snapshot(self):
        trace = make_trace()
        engine = Engine(CoreConfig.skylake(), max_cycles=10)
        with pytest.raises(NonTerminatingSimulation) as excinfo:
            engine.run(trace, warmup=WARMUP)
        snapshot = excinfo.value.snapshot
        assert snapshot["max_cycles"] == 10
        assert snapshot["cycle"] > 10
        assert 0 <= snapshot["op_index"] < len(trace)

    # --jobs 2 raises the error in pool workers, --jobs 1 in-process.
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("text", ["-5", "abc"])
    def test_bad_env_budget_is_a_usage_error(self, monkeypatch, capsys,
                                             text, jobs):
        monkeypatch.setenv("REPRO_MAX_CYCLES", text)
        assert main(["run", "astar", "--length", "3000", "--warmup",
                     "800", "--no-cache", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "REPRO_MAX_CYCLES must be a whole number of cycles (0 or "
            f"unset disarms the watchdog), got {text!r}")

    def test_generous_budget_changes_nothing(self):
        trace = make_trace()
        plain = simulate(trace, warmup=WARMUP)
        guarded = simulate(make_trace(), warmup=WARMUP,
                           max_cycles=10_000_000)
        assert guarded == plain

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_CYCLES", "10")
        with pytest.raises(NonTerminatingSimulation):
            simulate(make_trace(), warmup=WARMUP)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Engine(CoreConfig.skylake(), max_cycles=0)


# ----------------------------------------------------------------------
# Invariant checker.
# ----------------------------------------------------------------------
class TestInvariantChecker:
    def test_audit_passes_on_healthy_runs(self, monkeypatch):
        plain = simulate(make_trace(), warmup=WARMUP)
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        audited = simulate(make_trace(), warmup=WARMUP)
        # The audit is observability only: bit-identical results, and
        # the internally-forced timing arrays are not leaked.
        assert audited == plain
        assert audited.timing is None

    def test_audit_passes_with_predictor_and_2x(self, monkeypatch):
        from repro.predictors import make_predictor

        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        engine = Engine(CoreConfig.skylake_2x(), make_predictor("fvp"))
        engine.run(make_trace("milc"), warmup=WARMUP)

    def test_audit_detects_seeded_violation(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        engine = Engine(CoreConfig.skylake())
        trace = make_trace()
        original = engine._check_invariants

        def tampered(trace_arg, warmup, result):
            result.stall_cycles["retiring"] += 1  # break the partition
            original(trace_arg, warmup, result)

        monkeypatch.setattr(engine, "_check_invariants", tampered)
        with pytest.raises(InvariantViolation, match="stall partition"):
            engine.run(trace, warmup=WARMUP)

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        result = simulate(make_trace(), warmup=WARMUP)
        assert result.timing is None


# ----------------------------------------------------------------------
# Cache corruption quarantine.
# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_not_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = "a" * 64
        import os
        os.makedirs(cache.root)
        with open(cache.path(key), "w", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert cache.get(key) is None
        assert cache.quarantined == 1
        bad = cache.path(key) + ".bad"
        assert os.path.exists(bad)
        # The original bytes survive for post-mortem inspection.
        assert open(bad, encoding="utf-8").read() == '{"torn": '
        assert cache.entries() == []

    def test_stats_track_quarantines(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        import os
        os.makedirs(cache.root)
        with open(cache.path("b" * 64), "w", encoding="utf-8") as handle:
            handle.write("junk")
        cache.get("b" * 64)
        cache.flush_stats(0)
        assert cache.load_stats()["quarantined"] == 1


# ----------------------------------------------------------------------
# Gap-tolerant suites.
# ----------------------------------------------------------------------
class TestSuiteGaps:
    def test_suite_result_gaps_surface(self):
        suite = SuiteResult([], gaps=["astar"])
        assert not suite.complete
        assert suite.gaps == ["astar"]
        assert SuiteResult([]).complete

    def test_format_suite_annotates_gaps(self, tmp_path):
        runner = Runner(length=LENGTH, warmup=WARMUP,
                        workloads=["astar", "milc"])
        suite = runner.suite("lvp")
        partial = SuiteResult(suite.runs, gaps=["hadoop"])
        rendered = format_suite("lvp on skylake", partial)
        assert "incomplete" in rendered
        assert "hadoop" in rendered
        complete = format_suite("lvp on skylake", suite)
        assert "incomplete" not in complete


# ----------------------------------------------------------------------
# repro doctor.
# ----------------------------------------------------------------------
class TestDoctor:
    def test_doctor_passes_here(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "deterministic simulation" in out

    def test_doctor_reports_failures_nonzero(self, capsys, monkeypatch):
        import repro.cli as cli

        def broken(conn):
            conn.close()

        monkeypatch.setattr(cli, "_doctor_worker", broken)
        assert main(["doctor"]) == 1
        assert "FAIL" in capsys.readouterr().out
