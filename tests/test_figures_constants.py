"""Sanity checks on the recorded paper values and runner caching."""

import pytest

from repro.experiments import figures
from repro.experiments.runner import Runner


class TestPaperConstants:
    """The PAPER_* constants must transcribe the paper exactly."""

    def test_fig6_values(self):
        assert figures.PAPER_FIG6["Geomean"]["gain"] == pytest.approx(0.033)
        assert figures.PAPER_FIG6["Server"]["gain"] == pytest.approx(0.057)
        assert figures.PAPER_FIG6["Geomean"]["coverage"] == \
            pytest.approx(0.25)

    def test_fig7_values(self):
        assert figures.PAPER_FIG7["Geomean"]["gain"] == pytest.approx(0.086)
        assert figures.PAPER_FIG7["ISPEC06"]["gain"] == pytest.approx(0.151)

    def test_fig10_values(self):
        assert figures.PAPER_FIG10["fvp"]["gain"] == pytest.approx(0.033)
        assert figures.PAPER_FIG10["composite-8kb"]["coverage"] == \
            pytest.approx(0.39)
        assert figures.PAPER_FIG10["mr-1kb"]["gain"] == pytest.approx(0.011)

    def test_fig11_values(self):
        assert figures.PAPER_FIG11["fvp"]["gain"] == pytest.approx(0.086)
        assert figures.PAPER_FIG11["composite-1kb"]["gain"] == \
            pytest.approx(0.047)

    def test_fig12_values(self):
        assert figures.PAPER_FIG12["fvp-l1-miss-only"]["gain"] == 0.0
        assert figures.PAPER_FIG12["fvp-oracle"]["gain"] == \
            pytest.approx(0.0387)

    def test_fig13_values(self):
        assert figures.PAPER_FIG13["memory"]["Server"] == \
            pytest.approx(0.0528)
        assert figures.PAPER_FIG13["register"]["FSPEC06"] == \
            pytest.approx(0.0210)

    def test_fig6_paper_ordering(self):
        """The transcription itself must preserve the paper's ordering
        (guards against typos): Server > ISPEC > FSPEC > SPEC17."""
        gains = {c: figures.PAPER_FIG6[c]["gain"]
                 for c in ("FSPEC06", "ISPEC06", "Server", "SPEC17")}
        ordered = sorted(gains, key=gains.get, reverse=True)
        assert ordered == ["Server", "ISPEC06", "FSPEC06", "SPEC17"]


class TestSuiteCache:
    def test_named_suites_cached(self):
        runner = Runner(length=3000, warmup=1000, workloads=["astar"])
        first = runner.suite("fvp")
        second = runner.suite("fvp")
        assert first is second

    def test_cache_is_per_core(self):
        runner = Runner(length=3000, warmup=1000, workloads=["astar"])
        assert runner.suite("fvp", "skylake") is not \
            runner.suite("fvp", "skylake-2x")
