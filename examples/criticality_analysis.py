#!/usr/bin/env python3
"""Criticality analysis: DDG oracle vs hardware heuristics.

Runs one workload through the Fields-style data-dependence-graph
oracle (the Figure-12 upper bound) and through the two hardware
heuristics (retirement stall, L1 miss), then compares the critical
load PC sets and the performance of FVP driven by each.

Run:  python examples/criticality_analysis.py [workload]
"""

import sys

from repro import CoreConfig, build_workload, simulate
from repro.core import fvp_default, fvp_l1_miss, fvp_oracle
from repro.criticality import (
    l1_miss_pcs,
    oracle_analysis,
    retirement_stall_pcs,
)
from repro.isa import opcodes
from repro.memory import MemoryHierarchy


def load_levels(trace, config):
    """Functional cache pass: serving level per op (loads only)."""
    memory = MemoryHierarchy(config.memory)
    levels = []
    for uop in trace:
        if uop.op in (opcodes.LOAD, opcodes.STORE):
            _lat, level = memory.access(uop.pc, uop.addr, 0,
                                        is_store=uop.op == opcodes.STORE)
            levels.append(level)
        else:
            levels.append("L1")
    return levels


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "gobmk"
    trace = build_workload(workload, length=60_000)
    config = CoreConfig.skylake()

    print(f"workload: {workload} ({len(trace)} micro-ops)")
    print("running DDG oracle analysis ...")
    oracle_pcs, timing_run = oracle_analysis(trace, config)
    stall_pcs = retirement_stall_pcs(trace, timing_run)
    miss_pcs = l1_miss_pcs(trace, load_levels(trace, config))

    print(f"  DDG-critical load PCs   : {len(oracle_pcs)}")
    print(f"  retirement-stall PCs    : {len(stall_pcs)}")
    print(f"  L1-miss PCs             : {len(miss_pcs)}")
    agree = len(oracle_pcs & stall_pcs)
    print(f"  stall∩oracle overlap    : {agree} "
          f"({agree / max(len(oracle_pcs), 1):.0%} of oracle)")

    print()
    print("driving FVP with each criticality source (Figure 12):")
    warmup = 24_000
    baseline = simulate(trace, config=config, warmup=warmup)
    configs = [
        ("retirement stall (FVP)", fvp_default()),
        ("L1 miss", fvp_l1_miss()),
        ("DDG oracle", fvp_oracle(oracle_pcs)),
    ]
    print(f"  {'criticality':<24} {'speedup':>9} {'coverage':>9}")
    for label, predictor in configs:
        result = simulate(trace, config=config, predictor=predictor,
                          warmup=warmup)
        print(f"  {label:<24} {result.ipc / baseline.ipc - 1:+9.2%} "
              f"{result.coverage:9.1%}")


if __name__ == "__main__":
    main()
