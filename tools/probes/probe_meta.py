"""Chain-head hit level vs region size in composition."""
import statistics

from _common import probe_args

args = probe_args("chain-head hit level vs meta-region size",
                  length=60_000, warmup=29_000)

from repro.core import fvp_default  # noqa: E402
from repro.pipeline import CoreConfig, simulate  # noqa: E402
from repro.trace.builder import (  # noqa: E402
    KernelSpec, WorkloadProfile, build_trace)
from repro.trace.kernels import IndexedMissKernel, StreamKernel  # noqa: E402

for slots in (128, 256, 512, 1024):
    specs = [
        KernelSpec(IndexedMissKernel, 0.2, meta_base=0, meta_slots=slots,
                   data_base=1 << 23, footprint=32 << 20, alu_depth=4, pad=20),
        KernelSpec(StreamKernel, 0.3, array_base=0, footprint=8 << 20, unroll=6),
    ]
    profile = WorkloadProfile('probe%d' % slots, 'ISPEC06', args.seed, specs)
    tr = build_trace(profile, args.length)
    base = simulate(tr, config=CoreConfig.skylake(), warmup=args.warmup,
                    collect_timing=True)
    t = base.timing
    lat = [t['complete'][i] - t['issue'][i]
           for i, u in enumerate(tr) if u.pc == 0x400000]
    f = simulate(tr, config=CoreConfig.skylake(), predictor=fvp_default(),
                 warmup=args.warmup)
    print('slots %4d: meta lat %.1f | base %.3f fvp %+6.1f%% cov %.2f' % (
        slots, statistics.mean(lat[len(lat)//2:]), base.ipc,
        100*(f.ipc/base.ipc-1), f.coverage))
