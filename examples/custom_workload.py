#!/usr/bin/env python3
"""Building a custom workload from kernel primitives.

The 60-workload catalogue is just seeded recipes over the kernel
library; this example composes a fresh workload — a pointer-hop chain
feeding delinquent misses, a memory-carried accumulator, and stream
noise — and sweeps the ratio of critical to noise work to show how
FVP's gain tracks the bottleneck share while its *coverage* barely
moves (the decoupling the paper's Figure 8 highlights).

Run:  python examples/custom_workload.py
"""

from repro import CoreConfig, FVP, simulate
from repro.trace import (
    IndexedMissKernel,
    KernelSpec,
    StoreForwardKernel,
    StreamKernel,
    WorkloadProfile,
    build_trace,
)


def make_profile(critical_weight: float) -> WorkloadProfile:
    noise_weight = max(1.0 - critical_weight, 0.05)
    specs = [
        KernelSpec(IndexedMissKernel, critical_weight * 0.6,
                   meta_base=0, hops=3, data_base=1 << 23,
                   footprint=32 << 20, alu_depth=3, pad=20),
        KernelSpec(StoreForwardKernel, critical_weight * 0.4,
                   src_base=0, queue_base=1 << 20, data_base=1 << 23,
                   carried=True, hops=3, addr_depth=4, produce_depth=2,
                   pad=10),
        KernelSpec(StreamKernel, noise_weight,
                   array_base=0, footprint=8 << 20, unroll=6),
    ]
    return WorkloadProfile(f"custom-{critical_weight:.2f}", "ISPEC06",
                           seed=7, specs=specs)


def main() -> None:
    config = CoreConfig.skylake()
    print(f"{'critical share':>14} {'base IPC':>9} {'FVP gain':>9} "
          f"{'coverage':>9}")
    for critical_weight in (0.1, 0.2, 0.3, 0.5, 0.7):
        profile = make_profile(critical_weight)
        trace = build_trace(profile, 60_000)
        baseline = simulate(trace, config=config, warmup=24_000)
        focused = simulate(trace, config=config, predictor=FVP(),
                           warmup=24_000)
        print(f"{critical_weight:>14.0%} {baseline.ipc:9.3f} "
              f"{focused.ipc / baseline.ipc - 1:+9.2%} "
              f"{focused.coverage:9.1%}")


if __name__ == "__main__":
    main()
