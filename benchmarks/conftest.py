"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's
evaluation.  One session-scoped :class:`~repro.experiments.Runner`
drives the campaign engine (:mod:`repro.experiments.campaign`): jobs
are deduplicated, fanned out over worker processes, and — when the
cache is enabled — served from ``.repro-cache/`` so a re-run of an
unchanged figure never simulates.  The Runner's in-process job →
result memo still lets figures share work (Figures 6, 8 and 10 all
need FVP-on-Skylake, for example): a job it has run is never
resubmitted.

Scale knobs (environment variables):

=================  ====================================================
REPRO_LENGTH       trace length per workload (default 60 000)
REPRO_WARMUP       warmup prefix excluded from statistics (default
                   24 000)
REPRO_PER_CATEGORY limit workloads per category (default: all 60)
REPRO_JOBS         campaign worker processes (default: all cores;
                   1 = serial in-process)
REPRO_CACHE        "1" enables the persistent result cache under
                   $REPRO_CACHE_DIR or .repro-cache (default: off)
=================  ====================================================

The defaults keep a full `pytest benchmarks/ --benchmark-only` run in
the tens of minutes; raise REPRO_LENGTH for tighter statistics.
"""

import os

import pytest

from repro.experiments.figures import default_runner

LENGTH = int(os.environ.get("REPRO_LENGTH", 60_000))
WARMUP = int(os.environ.get("REPRO_WARMUP", 24_000))
PER_CATEGORY = os.environ.get("REPRO_PER_CATEGORY")
JOBS = int(os.environ.get("REPRO_JOBS", 0)) or None
USE_CACHE = os.environ.get("REPRO_CACHE", "") == "1"


@pytest.fixture(scope="session")
def runner():
    """Session-wide experiment runner over the workload suite."""
    per_category = int(PER_CATEGORY) if PER_CATEGORY else None
    return default_runner(length=LENGTH, warmup=WARMUP,
                          per_category=per_category,
                          jobs=JOBS, use_cache=USE_CACHE)


@pytest.fixture(scope="session")
def small_runner():
    """Reduced runner for parameter sweeps (sensitivity studies)."""
    return default_runner(length=LENGTH, warmup=WARMUP, per_category=2,
                          jobs=JOBS, use_cache=USE_CACHE)


def print_paper_vs_measured(title, paper, measured, key="gain"):
    """Render a paper-vs-measured comparison block."""
    print()
    print(title)
    print(f"  {'configuration':<22} {'paper':>8} {'measured':>9}")
    for label in paper:
        paper_value = paper[label].get(key) if isinstance(paper[label], dict) \
            else paper[label]
        measured_entry = measured.get(label, {})
        measured_value = measured_entry.get(key) if \
            isinstance(measured_entry, dict) else measured_entry
        measured_text = f"{100 * measured_value:+8.1f}%" \
            if measured_value is not None else "      n/a"
        print(f"  {label:<22} {100 * paper_value:+7.1f}% {measured_text}")
