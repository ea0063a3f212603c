#!/usr/bin/env python3
"""Shootout: every implemented value predictor on one workload.

Runs the full predictor zoo — LVP, stride, FCM, VTAGE, D-VTAGE, EVES,
DLVP, Memory Renaming (8 KB/1 KB), Composite (8 KB/1 KB), and FVP — on
one trace and prints speedup / coverage / accuracy / storage for each,
sorted by speedup per kilobyte.

Run:  python examples/predictor_shootout.py [workload] [length]
"""

import sys

from repro import CoreConfig, build_workload, make_predictor, simulate

PREDICTORS = [
    "lvp", "stride", "fcm", "vtage", "dvtage", "eves", "dlvp",
    "mr-1kb", "mr-8kb", "composite-1kb", "composite-8kb", "fvp",
]


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "cassandra"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 80_000
    warmup = length // 3

    trace = build_workload(workload, length=length)
    config = CoreConfig.skylake()
    baseline = simulate(trace, config=config, warmup=warmup)
    print(f"workload {workload}: baseline IPC {baseline.ipc:.3f}\n")

    rows = []
    for name in PREDICTORS:
        predictor = make_predictor(name)
        result = simulate(trace, config=config, predictor=predictor,
                          warmup=warmup)
        kilobytes = predictor.storage_bits() / 8192
        gain = result.ipc / baseline.ipc - 1
        rows.append((name, gain, result.coverage, result.accuracy,
                     kilobytes))

    rows.sort(key=lambda r: r[1] / max(r[4], 0.05), reverse=True)
    print(f"{'predictor':<15} {'speedup':>9} {'coverage':>9} "
          f"{'accuracy':>9} {'storage':>9} {'gain/KB':>9}")
    for name, gain, coverage, accuracy, kilobytes in rows:
        print(f"{name:<15} {gain:+9.2%} {coverage:9.1%} {accuracy:9.2%} "
              f"{kilobytes:7.2f}KB {gain / max(kilobytes, 0.05):+9.2%}")

    print()
    print("FVP's pitch is the last column: performance per kilobyte.")


if __name__ == "__main__":
    main()
