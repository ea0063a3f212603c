"""Metrics and report rendering."""

from repro.analysis.metrics import (
    WorkloadRun,
    by_category,
    category_summary,
    geomean,
    mean,
    shape_check,
)
from repro.analysis.power import (
    EnergyReport,
    compare_energy,
    format_energy_comparison,
    predictor_energy,
    table_access_energy,
)
from repro.analysis.reporting import (
    format_bar_comparison,
    format_category_summary,
    format_percent,
    format_series,
    format_table,
)

__all__ = [
    "WorkloadRun",
    "by_category",
    "category_summary",
    "geomean",
    "mean",
    "shape_check",
    "EnergyReport",
    "predictor_energy",
    "compare_energy",
    "format_energy_comparison",
    "table_access_energy",
    "format_table",
    "format_percent",
    "format_category_summary",
    "format_bar_comparison",
    "format_series",
]
