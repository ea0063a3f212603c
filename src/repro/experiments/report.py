"""One-shot reproduction report.

:func:`generate_report` runs the figure drivers and renders a single
markdown document with paper-vs-measured for each — the programmatic
equivalent of EXPERIMENTS.md.  Exposed on the CLI as
``python -m repro report``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments import figures, storage
from repro.experiments.runner import Runner

#: figure number -> paper-values constant or None
_PAPER = {
    6: figures.PAPER_FIG6,
    7: figures.PAPER_FIG7,
    10: figures.PAPER_FIG10,
    11: figures.PAPER_FIG11,
    12: figures.PAPER_FIG12,
    13: None,
}
#: The figure numbers a report can render, in its order.
FIGURES = tuple(_PAPER)


def _paper_vs_measured(paper, measured) -> List[str]:
    lines = ["", "| configuration | paper | measured |",
             "|---|---|---|"]
    for label, stats in paper.items():
        paper_gain = stats["gain"] if isinstance(stats, dict) else stats
        measured_stats = measured.get(label, {})
        measured_gain = measured_stats.get("gain") \
            if isinstance(measured_stats, dict) else measured_stats
        measured_text = f"{100 * measured_gain:+.1f}%" \
            if measured_gain is not None else "n/a"
        lines.append(f"| {label} | {100 * paper_gain:+.1f}% "
                     f"| {measured_text} |")
    return lines


def generate_report(runner: Optional[Runner] = None,
                    figure_numbers: Sequence[int] = (6, 7, 10, 12),
                    include_oracle: bool = False) -> str:
    """Run the requested figures and return a markdown report.

    The figures' cells run first, as one campaign.  ``include_oracle``
    adds the DDG-oracle bar to Figure 12 (slow).
    """
    runner = runner or figures.default_runner()
    numbers = [number for number in FIGURES if number in figure_numbers]
    runner.results(runner.plan(figures.figure_cells(numbers, include_oracle)))
    sections = ["# Reproduction report",
                "",
                f"Workloads: {len(runner.workloads)}; trace length "
                f"{runner.length}; warmup {runner.warmup}.",
                "",
                "## Table I — storage",
                "",
                "```",
                storage.format_table1(),
                "```"]
    for number in numbers:
        paper = _PAPER[number]
        driver = getattr(figures, f"figure{number}")
        renderer = getattr(figures, f"render_figure{number}")
        if number == 12:
            data = driver(runner, include_oracle=include_oracle)
        else:
            data = driver(runner)
        sections += ["", f"## Figure {number}", "", "```",
                     renderer(data), "```"]
        if paper is not None:
            sections += _paper_vs_measured(paper, data)
    return "\n".join(sections) + "\n"


def write_report(path: str, runner: Optional[Runner] = None,
                 figure_numbers: Sequence[int] = (6, 7, 10, 12),
                 include_oracle: bool = False) -> str:
    """Generate and write the report; returns the markdown."""
    report = generate_report(runner, figure_numbers, include_oracle)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report)
    return report
