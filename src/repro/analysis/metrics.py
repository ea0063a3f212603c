"""Aggregation metrics matching the paper's reporting conventions.

Speedups are IPC ratios over a same-trace baseline; aggregates are
geometric means (the paper reports "geometric mean" throughout);
coverage aggregates are arithmetic means of per-workload coverages.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterable, List, Optional, Sequence

from repro.pipeline.results import SimResult


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty or non-positive input."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


class WorkloadRun:
    """Paired (baseline, predictor) results for one workload."""

    __slots__ = ("workload", "category", "baseline", "result")

    def __init__(self, workload: str, category: str,
                 baseline: SimResult, result: SimResult) -> None:
        self.workload = workload
        self.category = category
        self.baseline = baseline
        self.result = result

    @property
    def speedup(self) -> float:
        return self.result.speedup_over(self.baseline)

    @property
    def gain(self) -> float:
        """Fractional IPC gain (0.033 = +3.3%)."""
        return self.speedup - 1.0

    @property
    def coverage(self) -> float:
        return self.result.coverage


class SuiteResult(SequenceABC):
    """An ordered collection of :class:`WorkloadRun` — what one
    predictor/core configuration produced over the whole suite.

    Behaves as a sequence (iteration, indexing, ``len``) so existing
    per-run code keeps working, and centralises the aggregations the
    figure drivers and reports repeat: geomean speedup, mean coverage,
    category grouping, and flat rows for tabulation.

    ``gaps`` lists workloads a non-strict campaign quarantined instead
    of completing (docs/ROBUSTNESS.md): their runs are absent from the
    aggregates, and reports annotate the gap explicitly rather than
    silently presenting a partial suite as complete.
    """

    __slots__ = ("runs", "gaps")

    def __init__(self, runs: Iterable[WorkloadRun],
                 gaps: Iterable[str] = ()) -> None:
        self.runs: List[WorkloadRun] = list(runs)
        self.gaps: List[str] = list(gaps)

    @property
    def complete(self) -> bool:
        """True when no workload was quarantined out of the suite."""
        return not self.gaps

    # -- sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SuiteResult(self.runs[index], gaps=self.gaps)
        return self.runs[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        gaps = f" ({len(self.gaps)} gaps)" if self.gaps else ""
        return f"<SuiteResult {len(self.runs)} runs{gaps}>"

    # -- aggregation ---------------------------------------------------
    def geomean_speedup(self) -> float:
        """Geometric-mean IPC ratio over the baseline (paper headline)."""
        return geomean(r.speedup for r in self.runs)

    @property
    def gain(self) -> float:
        """Fractional geomean gain (0.033 = +3.3%)."""
        return self.geomean_speedup() - 1.0

    @property
    def coverage(self) -> float:
        """Arithmetic-mean coverage across workloads."""
        return mean(r.coverage for r in self.runs)

    def by_category(self) -> Dict[str, "SuiteResult"]:
        """Category → SuiteResult of that category's runs."""
        return {category: SuiteResult(group)
                for category, group in by_category(self.runs).items()}

    def category_summary(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Figures-6/7-shaped per-category summary (see
        :func:`category_summary`)."""
        return category_summary(self.runs)

    def to_rows(self) -> List[Dict[str, float]]:
        """One flat dict per workload, for tables and serialization."""
        return [{"workload": r.workload,
                 "category": r.category,
                 "speedup": r.speedup,
                 "gain": r.gain,
                 "coverage": r.coverage,
                 "ipc": r.result.ipc,
                 "baseline_ipc": r.baseline.ipc}
                for r in self.runs]


def by_category(runs: Sequence[WorkloadRun]) -> Dict[str, List[WorkloadRun]]:
    groups: Dict[str, List[WorkloadRun]] = {}
    for run in runs:
        groups.setdefault(run.category, []).append(run)
    return groups


def category_summary(runs: Sequence[WorkloadRun]
                     ) -> Dict[str, Dict[str, Optional[float]]]:
    """Per-category geomean speedup and mean coverage, plus an overall
    'Geomean' row — the structure of Figures 6/7/13.  With no runs (a
    campaign that quarantined every workload) the 'Geomean' row is the
    only one, and its gain and coverage are None: undefined."""
    summary: Dict[str, Dict[str, Optional[float]]] = {}
    for category, group in sorted(by_category(runs).items()):
        summary[category] = {
            "gain": geomean(r.speedup for r in group) - 1.0,
            "coverage": mean(r.coverage for r in group),
            "workloads": len(group),
        }
    summary["Geomean"] = {
        "gain": geomean(r.speedup for r in runs) - 1.0 if runs else None,
        "coverage": mean(r.coverage for r in runs) if runs else None,
        "workloads": len(runs),
    }
    return summary

