"""The top-down stall taxonomy.

Every cycle of a simulation is charged to exactly one bucket:
``retiring`` when at least one micro-op retires that cycle, otherwise
the cause that kept the ROB head from retiring.  The attribution is
*exact by construction* — the engine charges the gap between
consecutive retirement cycles as it schedules each op, so

    sum(stall_cycles.values()) == SimResult.cycles

holds for every workload/core/predictor combination (asserted in
``tests/test_telemetry.py``).  Warmup cycles are accumulated into a
separate dict so the reported breakdown covers only the measured
region.

Bucket semantics (the cause the ROB head was bound by):

=====================  ==============================================
``retiring``           at least one op retired this cycle
``frontend-starved``   allocation bound by fetch (I-cache bubbles or
                       fetch bandwidth)
``head-waiting-on-load``  head op is a load in the memory system, or
                       is waiting on a load producer's data
``head-waiting-on-exec``  head op (or its producer) is still executing
                       on a non-load unit
``branch-flush``       allocation bound by a control-mispredict
                       redirect
``vp-flush``           allocation bound by a value-mispredict redirect
``mem-flush``          allocation bound by a memory-ordering-violation
                       redirect
=====================  ==============================================

There is no window, queue or port bucket: those bounds are times of
older ops, never above the previous retirement where charging starts,
so their cost lands in the head-waiting buckets (docs/ENGINE.md
§Cycle accounting).
"""

from __future__ import annotations

from typing import Dict, Mapping

RETIRING = "retiring"
FRONTEND_STARVED = "frontend-starved"
HEAD_WAIT_LOAD = "head-waiting-on-load"
HEAD_WAIT_EXEC = "head-waiting-on-exec"
BRANCH_FLUSH = "branch-flush"
VP_FLUSH = "vp-flush"
MEM_FLUSH = "mem-flush"

#: Non-retiring causes, in reporting order (front of the machine to
#: the back, flush recovery last).
STALL_BUCKETS = (
    FRONTEND_STARVED,
    HEAD_WAIT_LOAD,
    HEAD_WAIT_EXEC,
    BRANCH_FLUSH,
    VP_FLUSH,
    MEM_FLUSH,
)

#: Every bucket, ``retiring`` first — the full partition of cycles.
ALL_BUCKETS = (RETIRING,) + STALL_BUCKETS


def empty_buckets() -> Dict[str, int]:
    """A zeroed cycle-accounting dict covering the full taxonomy."""
    return {bucket: 0 for bucket in ALL_BUCKETS}


def cpi_breakdown(stall_cycles: Mapping[str, int],
                  instructions: int) -> Dict[str, float]:
    """Per-bucket cycles-per-instruction; the values sum to the run's
    CPI when ``stall_cycles`` covers all its cycles."""
    if not instructions:
        return {bucket: 0.0 for bucket in ALL_BUCKETS}
    return {bucket: stall_cycles.get(bucket, 0) / instructions
            for bucket in ALL_BUCKETS}


__all__ = [
    "RETIRING", "FRONTEND_STARVED", "HEAD_WAIT_LOAD", "HEAD_WAIT_EXEC",
    "BRANCH_FLUSH", "VP_FLUSH", "MEM_FLUSH", "STALL_BUCKETS",
    "ALL_BUCKETS", "empty_buckets", "cpi_breakdown",
]
