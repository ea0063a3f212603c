"""repro.telemetry — cycle accounting, stall attribution, event traces.

The measurement substrate of the laboratory.  Three parts:

* :mod:`repro.telemetry.stats` — the :class:`StatGroup` /
  :class:`Counter` / :class:`Histogram` hierarchy.  Every component
  (front end, timing engine, memory hierarchy, predictors) publishes
  into one named tree per simulation; trees merge across runs and
  round-trip through JSON, so they ride in :class:`SimResult` and the
  campaign cache.
* :mod:`repro.telemetry.stalls` — the top-down stall taxonomy the
  engine's per-cycle attribution charges non-retiring cycles to, and
  the CPI-breakdown arithmetic (`repro profile` renders it).
* :mod:`repro.telemetry.trace` / :mod:`repro.telemetry.export` — an
  opt-in bounded ring buffer of pipeline events
  (alloc/issue/complete/retire/flush) with ``chrome://tracing`` JSON
  and CSV exporters.

See ``docs/TELEMETRY.md`` for the counter tree, the stall taxonomy and
its exactness invariant (buckets sum to ``SimResult.cycles``), and the
trace formats.
"""

from repro.telemetry.stats import Counter, Histogram, StatGroup
from repro.telemetry.stalls import (
    ALL_BUCKETS,
    BRANCH_FLUSH,
    FRONTEND_STARVED,
    HEAD_WAIT_EXEC,
    HEAD_WAIT_LOAD,
    MEM_FLUSH,
    RETIRING,
    STALL_BUCKETS,
    VP_FLUSH,
    cpi_breakdown,
    empty_buckets,
)
from repro.telemetry.trace import Event, EventTrace

__all__ = [
    "Counter",
    "Histogram",
    "StatGroup",
    "Event",
    "EventTrace",
    "RETIRING",
    "FRONTEND_STARVED",
    "HEAD_WAIT_LOAD",
    "HEAD_WAIT_EXEC",
    "BRANCH_FLUSH",
    "VP_FLUSH",
    "MEM_FLUSH",
    "STALL_BUCKETS",
    "ALL_BUCKETS",
    "empty_buckets",
    "cpi_breakdown",
]
