"""Tests for metrics and report rendering."""

import math

import pytest

from repro.analysis import (
    WorkloadRun,
    by_category,
    category_summary,
    format_bar_comparison,
    format_category_summary,
    format_percent,
    format_series,
    format_table,
    geomean,
    mean,
    shape_check,
)
from repro.analysis.metrics import SuiteResult
from repro.pipeline.results import SimResult


def make_run(workload, category, base_ipc, ipc, coverage=0.2):
    base = SimResult(workload, "skylake", "baseline")
    base.instructions, base.cycles = 1000, int(1000 / base_ipc)
    res = SimResult(workload, "skylake", "fvp")
    res.instructions, res.cycles = 1000, int(1000 / ipc)
    res.loads = 100
    res.predicted_loads = int(100 * coverage)
    return WorkloadRun(workload, category, base, res)


class TestScalars:
    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([1.0]) == 1.0

    def test_geomean_rejects_bad_input(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        with pytest.raises(ValueError):
            mean([])


class TestWorkloadRun:
    def test_speedup_and_gain(self):
        run = make_run("a", "ISPEC06", 1.0, 1.1)
        assert run.speedup == pytest.approx(1.1, rel=0.01)
        assert run.gain == pytest.approx(0.1, abs=0.01)

    def test_grouping(self):
        runs = [make_run("a", "ISPEC06", 1, 1.1),
                make_run("b", "Server", 1, 1.2),
                make_run("c", "ISPEC06", 1, 1.0)]
        groups = by_category(runs)
        assert len(groups["ISPEC06"]) == 2
        assert len(groups["Server"]) == 1

    def test_category_summary_has_geomean_row(self):
        runs = [make_run("a", "ISPEC06", 1, 1.1, coverage=0.4),
                make_run("b", "Server", 1, 1.2, coverage=0.2)]
        summary = category_summary(runs)
        assert "Geomean" in summary
        expected = math.sqrt(1.1 * 1.2) - 1
        assert summary["Geomean"]["gain"] == pytest.approx(expected,
                                                           abs=0.01)
        assert summary["Geomean"]["coverage"] == pytest.approx(0.3,
                                                               abs=0.01)

    def test_suite_aggregates(self):
        suite = SuiteResult([make_run("a", "ISPEC06", 1, 1.21),
                             make_run("b", "Server", 1, 1.0)])
        assert suite.gain == pytest.approx(0.1, abs=0.01)
        assert suite.coverage == pytest.approx(0.2, abs=0.01)


class TestShapeCheck:
    def test_same_ordering_passes(self):
        paper = {"a": 0.04, "b": 0.02, "c": 0.01}
        measured = {"a": 0.08, "b": 0.05, "c": 0.02}
        assert all(shape_check(measured, paper).values())

    def test_inverted_ordering_fails(self):
        paper = {"a": 0.04, "b": 0.01}
        measured = {"a": 0.01, "b": 0.04}
        outcome = shape_check(measured, paper)
        assert not outcome["a"] and not outcome["b"]


class TestRendering:
    def test_format_table_aligns(self):
        text = format_table(("x", "yy"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("x")

    def test_format_percent(self):
        assert format_percent(0.033) == "+3.3%"
        assert format_percent(-0.01) == "-1.0%"

    def test_category_summary_renders(self):
        runs = [make_run("a", "ISPEC06", 1, 1.1)]
        text = format_category_summary("T", category_summary(runs))
        assert "ISPEC06" in text and "Geomean" in text

    def test_bar_comparison_renders(self):
        text = format_bar_comparison("T", {
            "fvp": {"gain": 0.033, "coverage": 0.25},
            "mr": {"gain": 0.02, "coverage": None},
        })
        assert "fvp" in text and "+3.3%" in text

    def test_series_renders(self):
        text = format_series("T", ["w1", "w2"],
                             {"s": [1.0, 1.5]})
        assert "w1" in text and "1.500" in text
