#!/usr/bin/env python3
"""Quickstart: simulate one workload with and without FVP.

Builds the synthetic `omnetpp` trace, times it on the Skylake-like
baseline core, then again with Focused Value Prediction plugged in,
and prints the speedup, coverage, and accuracy — the three numbers the
paper reports for every configuration.

Run:  python examples/quickstart.py [workload] [length]
"""

import sys

from repro import CoreConfig, FVP, build_workload, simulate


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "omnetpp"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 80_000
    warmup = length // 3

    print(f"building workload {workload!r} ({length} micro-ops) ...")
    trace = build_workload(workload, length=length)

    print("simulating baseline (Skylake-like core) ...")
    baseline = simulate(trace, config=CoreConfig.skylake(), workload=workload,
                        warmup=warmup)

    print("simulating with Focused Value Prediction (1.2 KB) ...")
    predictor = FVP()
    focused = simulate(trace, config=CoreConfig.skylake(), predictor=predictor,
                       workload=workload, warmup=warmup)

    print()
    print(f"  baseline IPC : {baseline.ipc:6.3f}")
    print(f"  FVP IPC      : {focused.ipc:6.3f}"
          f"   ({100 * (focused.speedup_over(baseline) - 1):+.2f}%)")
    print(f"  coverage     : {focused.coverage:6.1%} of loads predicted")
    print(f"  accuracy     : {focused.accuracy:6.2%}")
    print(f"  VP flushes   : {focused.vp_flushes}")
    print(f"  storage      : {predictor.storage_bits() // 8} bytes")
    print()
    print("  prediction sources:")
    for source, (used, correct) in sorted(focused.by_source.items()):
        print(f"    {source:<8} {used:6d} used, "
              f"{correct / max(used, 1):6.1%} correct")
    print()
    print("  memory hierarchy (loads served):")
    for level, count in focused.level_counts.items():
        print(f"    {level:<5} {count}")


if __name__ == "__main__":
    main()
