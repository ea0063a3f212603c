"""Tests for the experiment runner, storage accounting, and figure
drivers (the drivers run on tiny subsets — the full-scale versions live
in benchmarks/)."""

import pytest

from repro.experiments import storage
from repro.experiments.figures import default_runner
from repro.experiments.runner import Runner, core_config
from tests.helpers import spy_campaigns


class TestStorageTable1:
    def test_paper_byte_counts(self):
        table = storage.table1()
        assert table["Critical Instruction Table"]["bytes"] == 60
        assert table["Value Table"]["bytes"] == 492
        assert table["MR Store/Load Table"]["bytes"] == 272
        assert table["MR VF"]["bytes"] == 350
        assert table["RAT-PC"]["bytes"] == 22

    def test_total_is_about_1_2_kb(self):
        assert storage.total_bytes() == 1196  # ~1.2 KB, as the paper says

    def test_fvp_object_agrees_with_table1(self):
        from repro.core import FVP

        assert FVP().storage_bits() == storage.total_bytes() * 8

    def test_render(self):
        text = storage.format_table1()
        assert "Value Table" in text and "1196" in text


class TestCoreConfigs:
    def test_skylake_matches_table2(self):
        cfg = core_config("skylake")
        assert cfg.fetch_width == 4
        assert cfg.retire_width == 8
        assert cfg.rob_size == 224
        assert cfg.lq_size == 64
        assert cfg.sq_size == 60
        assert cfg.iq_size == 97
        assert cfg.frontend.mispredict_penalty == 20
        assert cfg.vp_penalty == 20

    def test_skylake_2x_doubles_resources(self):
        sky = core_config("skylake")
        sky2 = core_config("skylake-2x")
        assert sky2.fetch_width == 2 * sky.fetch_width
        assert sky2.rob_size == 2 * sky.rob_size
        assert sky2.iq_size == 2 * sky.iq_size
        for op, group in sky.ports.items():
            assert sky2.ports[op].count == 2 * group.count

    def test_unknown_core_rejected(self):
        with pytest.raises(ValueError):
            core_config("skylake-3x")


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return Runner(length=6000, warmup=2000,
                      workloads=["astar", "hadoop"])

    def test_traces_cached(self, runner):
        assert runner.trace("astar") is runner.trace("astar")

    def test_baseline_cached(self, runner, monkeypatch):
        runner.run("astar")
        campaigns = spy_campaigns(monkeypatch)
        runner.run("astar")
        assert campaigns == []

    def test_run_by_name(self, runner):
        result = runner.run("astar", "skylake", "fvp")
        assert result.predictor == "fvp"
        assert result.instructions == len(runner.trace("astar")) - 2000

    def test_run_by_override_spec(self, runner):
        result = runner.run("astar", "skylake", "fvp:vt_entries=96")
        assert result.predictor == "fvp"
        assert result.instructions == len(runner.trace("astar")) - 2000

    def test_run_by_trace_aware_name(self, runner, monkeypatch):
        from repro.criticality import oracle

        seen = {}
        real = oracle.oracle_critical_pcs

        def spy(trace, config):
            seen["n"] = len(trace)
            seen["core"] = config.name
            return real(trace, config)

        monkeypatch.setattr(oracle, "oracle_critical_pcs", spy)
        result = runner.run("astar", "skylake-2x", "fvp-oracle")
        assert result.predictor == "fvp-oracle"
        assert seen["n"] >= 6000
        assert seen["core"] == "skylake-2x"

    def test_suite_runs_all_workloads(self, runner):
        runs = runner.suite("baseline", core="skylake")
        assert [r.workload for r in runs] == ["astar", "hadoop"]
        assert all(r.speedup == pytest.approx(1.0) for r in runs)

    def test_suite_run_carries_category(self, runner):
        run = runner.suite("fvp")[1]
        assert run.workload == "hadoop"
        assert run.category == "Server"

    def test_bad_warmup_rejected(self):
        with pytest.raises(ValueError):
            Runner(length=100, warmup=100)


class TestFigureDrivers:
    """Figure drivers on a 2-workload, short-trace runner: checks the
    plumbing and output structure, not the calibrated magnitudes."""

    @pytest.fixture(scope="class")
    def runner(self):
        return Runner(length=6000, warmup=2000,
                      workloads=["astar", "hadoop"])

    def test_figure6_structure(self, runner):
        from repro.experiments import figures

        summary = figures.figure6(runner)
        assert "Geomean" in summary
        assert "gain" in summary["Geomean"]
        text = figures.render_figure6(summary)
        assert "Figure 6" in text

    def test_figure8_per_workload(self, runner):
        from repro.experiments import figures

        data = figures.figure8(runner)
        assert set(data) == {"astar", "hadoop"}
        assert all("speedup" in v and "coverage" in v
                   for v in data.values())
        assert "astar" in figures.render_figure8(data)

    def test_figure10_bars(self, runner):
        from repro.experiments import figures

        bars = figures.figure10(runner)
        assert set(bars) == set(figures.FIG10_PREDICTORS)
        assert "composite-8kb" in figures.render_figure10(bars)

    def test_figure12_without_oracle(self, runner):
        from repro.experiments import figures

        bars = figures.figure12(runner, include_oracle=False)
        assert set(bars) == set(figures.FIG12_PREDICTORS)

    def test_figure12_oracle_bar_is_a_cached_spec(self, runner):
        from repro.experiments import figures

        bars = figures.figure12(runner)
        assert list(bars) == [*figures.FIG12_PREDICTORS, "fvp-oracle"]
        suite = runner.suite("fvp-oracle", core="skylake")
        assert bars["fvp-oracle"] == {"gain": suite.gain,
                                      "coverage": suite.coverage}

    def test_figure13_components(self, runner):
        from repro.experiments import figures

        data = figures.figure13(runner)
        assert set(data) == {"register", "memory"}
        assert "Geomean" in data["register"]

    def test_default_runner_subsampling(self):
        runner = default_runner(length=2000, warmup=500, per_category=2)
        assert len(runner.workloads) == 8
