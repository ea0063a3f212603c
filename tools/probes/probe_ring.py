"""Serial-ring amplification probe."""
from _common import probe_args

args = probe_args("serial-ring amplification across hop/pad/weight "
                  "points", length=60_000, warmup=29_000)

from repro.core import fvp_default  # noqa: E402
from repro.pipeline import CoreConfig, simulate  # noqa: E402
from repro.trace.builder import (  # noqa: E402
    KernelSpec, WorkloadProfile, build_trace)
from repro.trace.kernels import (  # noqa: E402
    HotLoadsKernel, IndexedMissKernel, StreamKernel)

for hops, pad, w, miss_fp in ((4, 10, 0.08, 0), (6, 10, 0.08, 0),
                              (6, 20, 0.10, 0), (4, 16, 0.06, 32 << 20)):
    specs = [
        KernelSpec(IndexedMissKernel, w, meta_base=0, hops=hops, serial=True,
                   data_base=1 << 23, footprint=miss_fp if miss_fp else 1 << 20,
                   alu_depth=2, pad=pad),
        KernelSpec(StreamKernel, 0.4, array_base=0, footprint=8 << 20, unroll=4),
        KernelSpec(HotLoadsKernel, 0.3, globals_base=0, count=8),
    ]
    profile = WorkloadProfile(f'r{hops}-{pad}-{w}', 'ISPEC06', args.seed, specs)
    tr = build_trace(profile, args.length)
    out = []
    for core in (CoreConfig.skylake(), CoreConfig.skylake_2x()):
        base = simulate(tr, config=core, warmup=args.warmup)
        f = simulate(tr, config=core, predictor=fvp_default(), warmup=args.warmup)
        out.append((base.ipc, 100*(f.ipc/base.ipc-1)))
    print('hops %d pad %2d w %.2f fp %dM | sky %.2f %+6.1f%% | 2x %.2f %+6.1f%% | amp %.1fx' % (
        hops, pad, w, miss_fp >> 20, out[0][0], out[0][1], out[1][0],
        out[1][1], out[1][1]/max(out[0][1], 0.01)))
