"""Plain-text rendering of experiment outputs.

Every figure/table driver in :mod:`repro.experiments` returns plain
data structures; these helpers render them as the rows/series the
paper's figures show, in simple aligned ASCII (benchmarks print them,
EXPERIMENTS.md quotes them).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.telemetry.stalls import ALL_BUCKETS


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Aligned ASCII table."""
    cells = [[str(h) for h in headers]]
    cells.extend([str(c) for c in row] for row in rows)
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(headers))]
    lines = []
    for row_index, row in enumerate(cells):
        line = "  ".join(cell.ljust(width)
                         for cell, width in zip(row, widths))
        lines.append(line.rstrip())
        if row_index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_percent(value: Optional[float], digits: int = 1) -> str:
    """A signed percentage; ``-`` for an undefined (None) value."""
    if value is None:
        return "-"
    return f"{100 * value:+.{digits}f}%"


def _coverage(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:.0f}%"


def format_category_summary(title: str,
                            summary: Mapping[str, Mapping[str, float]]) -> str:
    """Render a Figures-6/7-style per-category gain+coverage block."""
    rows = []
    for category, stats in summary.items():
        rows.append((category,
                     format_percent(stats["gain"]),
                     _coverage(stats["coverage"]),
                     int(stats.get("workloads", 0))))
    table = format_table(("category", "IPC gain", "coverage", "n"), rows)
    return f"{title}\n{table}"


def format_bar_comparison(title: str,
                          bars: Mapping[str, Mapping[str, float]]) -> str:
    """Render a Figures-10/11-style predictor comparison; an undefined
    (None) gain or coverage prints as ``-``."""
    rows = []
    for label, stats in bars.items():
        rows.append((label,
                     format_percent(stats["gain"]),
                     _coverage(stats.get("coverage"))))
    table = format_table(("predictor", "IPC gain", "coverage"), rows)
    return f"{title}\n{table}"


def format_suite(title: str, suite) -> str:
    """Render a :class:`~repro.analysis.metrics.SuiteResult` as a
    per-workload table with a geomean footer — the shared renderer for
    suite-shaped output (CLI ``sweep --per-workload``, reports), so
    callers stop hand-rolling row comprehensions."""
    rows = [(row["workload"], row["category"],
             f"{row['speedup']:.3f}", format_percent(row["gain"]),
             f"{row['coverage']:.1%}")
            for row in suite.to_rows()]
    rows.append(("geomean", "-", f"{suite.geomean_speedup():.3f}",
                 format_percent(suite.gain), f"{suite.coverage:.1%}"))
    table = format_table(
        ("workload", "category", "speedup", "gain", "coverage"), rows)
    gaps = getattr(suite, "gaps", None)
    if gaps:
        # A partial (non-strict) campaign: annotate the missing
        # workloads explicitly so the table is never mistaken for a
        # complete suite.
        table += (f"\n! incomplete: {len(gaps)} workload(s) failed and "
                  f"were excluded: {', '.join(gaps)}")
    return f"{title}\n{table}"


def format_cpi_breakdown(result, baseline: Optional[object] = None,
                         title: Optional[str] = None) -> str:
    """Render a run's per-bucket CPI breakdown (``repro profile``).

    One row per stall-taxonomy bucket with its cycle count, CPI
    contribution, and share of all cycles; when ``baseline`` (another
    :class:`~repro.pipeline.results.SimResult` over the same trace) is
    given, two more columns show the baseline's CPI and the delta —
    negative deltas are cycles-per-instruction the predictor removed
    from that bucket.
    """
    mine = result.cpi_breakdown()
    theirs = baseline.cpi_breakdown() if baseline is not None else None
    total = sum(result.stall_cycles.values())
    headers = ["bucket", "cycles", "CPI", "share"]
    if theirs is not None:
        headers += [f"{baseline.predictor} CPI", "ΔCPI"]
    rows = []
    for bucket in ALL_BUCKETS:
        cycles = result.stall_cycles.get(bucket, 0)
        row = [bucket, cycles, f"{mine[bucket]:.4f}",
               f"{cycles / total:.1%}" if total else "-"]
        if theirs is not None:
            row += [f"{theirs[bucket]:.4f}",
                    f"{mine[bucket] - theirs[bucket]:+.4f}"]
        rows.append(row)
    footer = ["total", total, f"{sum(mine.values()):.4f}", "100.0%"]
    if theirs is not None:
        footer += [f"{sum(theirs.values()):.4f}",
                   f"{sum(mine.values()) - sum(theirs.values()):+.4f}"]
    rows.append(footer)
    if title is None:
        title = (f"{result.workload} on {result.core}: "
                 f"{result.predictor} CPI breakdown")
    return f"{title}\n{format_table(headers, rows)}"


def format_series(title: str, labels: Sequence[str],
                  series: Mapping[str, Sequence[float]],
                  percent: bool = False) -> str:
    """Render a Figures-8/9-style per-workload line-graph as rows."""
    headers = ["workload"] + list(series)
    rows = []
    for index, label in enumerate(labels):
        row = [label]
        for name in series:
            value = series[name][index]
            row.append(format_percent(value) if percent
                       else f"{value:.3f}")
        rows.append(row)
    table = format_table(headers, rows)
    return f"{title}\n{table}"
