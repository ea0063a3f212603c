"""Drivers for every figure in the paper's evaluation (§VI).

Each ``figureN`` function runs the experiment and returns plain data;
``render`` helpers turn that into the rows/series the paper's figure
shows.  ``PAPER_*`` constants record the paper's reported numbers so
benchmarks and EXPERIMENTS.md can print paper-vs-measured side by
side.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.reporting import (
    format_bar_comparison,
    format_category_summary,
    format_series,
)
from repro.experiments.campaign import JobEvent
from repro.experiments.runner import Runner, core_config
from repro.trace.workloads import CATALOGUE

# ----------------------------------------------------------------------
# Paper-reported values (fractional gains / coverages).
# ----------------------------------------------------------------------
PAPER_FIG6 = {
    "FSPEC06": {"gain": 0.026, "coverage": 0.16},
    "ISPEC06": {"gain": 0.046, "coverage": 0.31},
    "Server": {"gain": 0.057, "coverage": 0.35},
    "SPEC17": {"gain": 0.009, "coverage": 0.18},
    "Geomean": {"gain": 0.033, "coverage": 0.25},
}
PAPER_FIG7 = {
    "FSPEC06": {"gain": 0.070, "coverage": 0.17},
    "ISPEC06": {"gain": 0.151, "coverage": 0.29},
    "Server": {"gain": 0.117, "coverage": 0.36},
    "SPEC17": {"gain": 0.025, "coverage": 0.17},
    "Geomean": {"gain": 0.086, "coverage": 0.24},
}
PAPER_FIG10 = {
    "mr-8kb": {"gain": 0.038, "coverage": 0.18},
    "composite-8kb": {"gain": 0.039, "coverage": 0.39},
    "fvp": {"gain": 0.033, "coverage": 0.25},
    "mr-1kb": {"gain": 0.011, "coverage": 0.11},
    "composite-1kb": {"gain": 0.017, "coverage": 0.24},
}
PAPER_FIG11 = {
    "mr-8kb": {"gain": 0.082},
    "composite-8kb": {"gain": 0.087},
    "fvp": {"gain": 0.086},
    "mr-1kb": {"gain": 0.032},
    "composite-1kb": {"gain": 0.047},
}
PAPER_FIG12 = {
    "fvp-l1-miss-only": {"gain": 0.000, "coverage": 0.06},
    "fvp-l1-miss": {"gain": 0.021, "coverage": 0.15},
    "fvp": {"gain": 0.033, "coverage": 0.25},
    "fvp-oracle": {"gain": 0.0387, "coverage": 0.19},
}
PAPER_FIG13 = {
    "register": {"FSPEC06": 0.0210, "ISPEC06": 0.0214, "Server": 0.0042,
                 "SPEC17": 0.0029, "Geomean": 0.0118},
    "memory": {"FSPEC06": 0.0046, "ISPEC06": 0.0242, "Server": 0.0528,
               "SPEC17": 0.0063, "Geomean": 0.0217},
}


# ----------------------------------------------------------------------
# Figures 6/7: FVP per-category gain and coverage.
# ----------------------------------------------------------------------
def figure6(runner: Optional[Runner] = None) -> Dict[str, Dict[str, float]]:
    """FVP on the Skylake baseline (Figure 6)."""
    runner = runner or Runner()
    return runner.suite("fvp", core="skylake").category_summary()


def figure7(runner: Optional[Runner] = None) -> Dict[str, Dict[str, float]]:
    """FVP on the Skylake-2X baseline (Figure 7)."""
    runner = runner or Runner()
    return runner.suite("fvp", core="skylake-2x").category_summary()


def render_figure6(summary: Dict[str, Dict[str, float]]) -> str:
    return format_category_summary(
        "Figure 6 — FVP on Skylake (per category)", summary)


def render_figure7(summary: Dict[str, Dict[str, float]]) -> str:
    return format_category_summary(
        "Figure 7 — FVP on Skylake-2X (per category)", summary)


# ----------------------------------------------------------------------
# Figure 8: per-workload IPC ratio vs coverage on Skylake.
# ----------------------------------------------------------------------
def figure8(runner: Optional[Runner] = None) -> Dict[str, Dict[str, float]]:
    """workload -> {speedup, coverage} for FVP on Skylake."""
    runner = runner or Runner()
    return {row["workload"]: {"speedup": row["speedup"],
                              "coverage": row["coverage"]}
            for row in runner.suite("fvp", core="skylake").to_rows()}


def render_figure8(data: Dict[str, Dict[str, float]]) -> str:
    labels = list(data)
    series = {
        "FVP IPC ratio": [data[w]["speedup"] for w in labels],
        "FVP coverage": [data[w]["coverage"] for w in labels],
    }
    return format_series("Figure 8 — per-workload IPC ratio and coverage "
                         "(Skylake)", labels, series)


# ----------------------------------------------------------------------
# Figure 9: per-workload Skylake vs Skylake-2X ratios.
# ----------------------------------------------------------------------
def figure9(runner: Optional[Runner] = None) -> Dict[str, Dict[str, float]]:
    """workload -> {skylake, skylake_2x} FVP speedups."""
    runner = runner or Runner()
    sky = runner.suite("fvp", "skylake")
    sky2 = runner.suite("fvp", "skylake-2x")
    return {a["workload"]: {"skylake": a["speedup"], "skylake_2x": b["speedup"]}
            for a, b in zip(sky.to_rows(), sky2.to_rows())}


def render_figure9(data: Dict[str, Dict[str, float]]) -> str:
    labels = list(data)
    series = {
        "Skylake+FVP / Skylake": [data[w]["skylake"] for w in labels],
        "2X+FVP / 2X": [data[w]["skylake_2x"] for w in labels],
    }
    return format_series("Figure 9 — FVP speedup, Skylake vs Skylake-2X",
                         labels, series)


# ----------------------------------------------------------------------
# Figures 10/11: prior-art comparison at 8 KB and 1 KB.
# ----------------------------------------------------------------------
FIG10_PREDICTORS = ("mr-8kb", "composite-8kb", "fvp", "mr-1kb",
                    "composite-1kb")


def _bar_comparison(runner: Runner, core: str,
                    predictors: Sequence[str]) -> Dict[str, Dict[str, float]]:
    bars: Dict[str, Dict[str, float]] = {}
    for name in predictors:
        suite = runner.suite(name, core=core)
        bars[name] = {"gain": suite.gain, "coverage": suite.coverage}
    return bars


def figure10(runner: Optional[Runner] = None) -> Dict[str, Dict[str, float]]:
    """MR / Composite / FVP on Skylake (Figure 10)."""
    runner = runner or Runner()
    return _bar_comparison(runner, "skylake", FIG10_PREDICTORS)


def figure11(runner: Optional[Runner] = None) -> Dict[str, Dict[str, float]]:
    """Same comparison on Skylake-2X (Figure 11)."""
    runner = runner or Runner()
    return _bar_comparison(runner, "skylake-2x", FIG10_PREDICTORS)


def render_figure10(bars: Dict[str, Dict[str, float]]) -> str:
    return format_bar_comparison(
        "Figure 10 — prior art vs FVP (Skylake)", bars)


def render_figure11(bars: Dict[str, Dict[str, float]]) -> str:
    return format_bar_comparison(
        "Figure 11 — prior art vs FVP (Skylake-2X)", bars)


# ----------------------------------------------------------------------
# Figure 12: criticality-detection quality.
# ----------------------------------------------------------------------
FIG12_PREDICTORS = ("fvp-l1-miss-only", "fvp-l1-miss", "fvp")


def figure12(runner: Optional[Runner] = None,
             include_oracle: bool = True) -> Dict[str, Dict[str, float]]:
    """Criticality heuristics vs the DDG oracle (Figure 12).  Each
    ``fvp-oracle`` job takes its critical roots from a DDG analysis of
    its own trace and core."""
    runner = runner or Runner()
    oracle = ("fvp-oracle",) if include_oracle else ()
    return _bar_comparison(runner, "skylake", FIG12_PREDICTORS + oracle)


def render_figure12(bars: Dict[str, Dict[str, float]]) -> str:
    return format_bar_comparison(
        "Figure 12 — sensitivity to criticality criteria", bars)


# ----------------------------------------------------------------------
# Figure 13: register vs memory dependence contributions.
# ----------------------------------------------------------------------
def figure13(runner: Optional[Runner] = None) -> Dict[str, Dict[str, float]]:
    """component -> per-category gain for FVP's two halves."""
    runner = runner or Runner()
    register = runner.suite("fvp-reg", core="skylake").category_summary()
    memory = runner.suite("fvp-mem", core="skylake").category_summary()
    return {
        "register": {cat: stats["gain"] for cat, stats in register.items()},
        "memory": {cat: stats["gain"] for cat, stats in memory.items()},
    }


def render_figure13(data: Dict[str, Dict[str, float]]) -> str:
    from repro.analysis.reporting import format_percent, format_table

    categories = list(data["register"])
    rows = [(cat,
             format_percent(data["register"][cat]),
             format_percent(data["memory"][cat]))
            for cat in categories]
    table = format_table(("category", "register deps", "memory deps"), rows)
    return "Figure 13 — contribution of FVP components (Skylake)\n" + table


# ----------------------------------------------------------------------
def default_runner(*,
                   length: Optional[int] = None,
                   warmup: Optional[int] = None,
                   per_category: Optional[int] = None,
                   jobs: int = 1, use_cache: bool = False,
                   cache_dir: Optional[str] = None,
                   progress: Optional[Callable[[JobEvent], None]] = None,
                   timeout: Optional[float] = None, retries: int = 2,
                   strict: bool = True,
                   seed: Optional[int] = None) -> Runner:
    """Runner over the full 60-workload suite, optionally subsampled to
    ``per_category`` workloads per category (benchmark scaling).
    ``jobs``/``use_cache`` configure the campaign engine and
    ``timeout``/``retries``/``strict`` its fault tolerance (see
    :class:`repro.experiments.Runner`); with ``strict=False`` a figure
    rendered from a partial campaign carries explicit gap
    annotations instead of aborting.  ``seed`` reseeds every generated
    trace (run-to-run variation studies).  Everything is
    keyword-only."""
    workloads: Optional[List[str]] = None
    if per_category is not None:
        seen: Dict[str, int] = {}
        workloads = []
        for name, profile in CATALOGUE.items():
            if seen.get(profile.category, 0) < per_category:
                workloads.append(name)
                seen[profile.category] = seen.get(profile.category, 0) + 1
    return Runner(length=length, warmup=warmup, workloads=workloads,
                  jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
                  progress=progress, timeout=timeout, retries=retries,
                  strict=strict, seed=seed)


__all__ = [
    "figure6", "figure7", "figure8", "figure9", "figure10", "figure11",
    "figure12", "figure13",
    "render_figure6", "render_figure7", "render_figure8", "render_figure9",
    "render_figure10", "render_figure11", "render_figure12",
    "render_figure13",
    "default_runner", "core_config",
    "PAPER_FIG6", "PAPER_FIG7", "PAPER_FIG10", "PAPER_FIG11",
    "PAPER_FIG12", "PAPER_FIG13",
]
