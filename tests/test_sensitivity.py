"""Tests for the sensitivity-study drivers (tiny runners — the
full-scale studies live in benchmarks/)."""

import pytest

from repro.experiments import sensitivity
from repro.experiments.runner import Runner


@pytest.fixture(scope="module")
def runner():
    return Runner(length=8000, warmup=3000,
                  workloads=["perlbench", "hadoop"])


class TestStudies:
    def test_all_instruction_study_structure(self, runner):
        data = sensitivity.all_instruction_study(runner)
        assert set(data) == {"fvp", "fvp-all"}
        assert all("gain" in v and "coverage" in v for v in data.values())

    def test_branch_chain_study_structure(self, runner):
        data = sensitivity.branch_chain_study(runner)
        assert set(data) == {"fvp", "fvp-br"}

    def test_epoch_sweep(self, runner):
        data = sensitivity.epoch_sweep(runner, epochs=(1000, 0))
        assert set(data) == {1000, 0}
        assert all(isinstance(v, float) for v in data.values())

    def test_default_epoch_is_figure6_fvp(self, tmp_path):
        from repro.experiments.figures import figure6

        events = []
        runner = Runner(length=8000, warmup=3000,
                        workloads=["perlbench", "hadoop"], use_cache=True,
                        cache_dir=str(tmp_path), progress=events.append)
        figure6(runner)
        data = sensitivity.epoch_sweep(runner)
        assert list(data) == [25_000, 100_000, 400_000, 1_600_000, 0]
        assert data[400_000] == runner.suite("fvp").gain
        simulated = [event.job.workload for event in events
                     if event.status == "done" and event.job.spec == "fvp"]
        assert sorted(simulated) == ["hadoop", "perlbench"]

    def test_table_size_sweep_keys(self, runner):
        data = sensitivity.table_size_sweep(runner)
        assert "default (VT48/VF40/CIT32)" in data
        assert "VT96/VF128" in data

    def test_lt_size_sweep(self, runner):
        data = sensitivity.lt_size_sweep(runner, sizes=(1, 2))
        assert set(data) == {1, 2}

    def test_store_chain_study(self, runner):
        data = sensitivity.store_chain_study(runner)
        assert set(data) == {"fvp", "fvp+store-chains"}

    def test_combined_study(self, runner):
        data = sensitivity.combined_mr_composite_study(runner)
        assert "mr+composite-1kb" in data
        assert "fvp" in data

    def test_stride_study(self, runner):
        data = sensitivity.stride_addition_study(runner)
        assert set(data) == {"fvp", "fvp+stride"}

    def test_power_study(self, runner):
        reports = sensitivity.power_study(runner,
                                          predictors=("fvp", "mr-1kb"))
        assert set(reports) == {"fvp", "mr-1kb"}
        fvp = reports["fvp"]
        assert fvp.instructions > 0
        assert fvp.total > 0


class TestResultMetrics:
    def test_mpki_properties(self, runner):
        result = runner.run("perlbench")
        assert result.branch_mpki >= 0
        assert result.llc_mpki >= 0
        assert result.branch_mpki == pytest.approx(
            1000 * result.branch_mispredicts / result.instructions)
