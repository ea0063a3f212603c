"""Probe 2X amplification of carried chains under dilution."""
from _common import probe_args

args = probe_args("Skylake-2X amplification of carried chains",
                  length=60_000, warmup=29_000)

from repro.core import fvp_default  # noqa: E402
from repro.pipeline import CoreConfig, simulate  # noqa: E402
from repro.trace.builder import (  # noqa: E402
    KernelSpec, WorkloadProfile, build_trace)
from repro.trace.kernels import (  # noqa: E402
    HotLoadsKernel, StoreForwardKernel, StreamKernel)

for hops, pad, w in ((3, 10, 0.12), (4, 16, 0.12), (5, 24, 0.12), (6, 10, 0.08)):
    specs = [
        KernelSpec(StoreForwardKernel, w, src_base=0, queue_base=1 << 20,
                   data_base=1 << 23, carried=True, hops=hops, addr_depth=4,
                   produce_depth=2, pad=pad),
        KernelSpec(StreamKernel, 0.4, array_base=0, footprint=8 << 20, unroll=4),
        KernelSpec(HotLoadsKernel, 0.3, globals_base=0, count=8),
    ]
    profile = WorkloadProfile(f'p{hops}-{pad}', 'ISPEC06', args.seed, specs)
    tr = build_trace(profile, args.length)
    out = []
    for core in (CoreConfig.skylake(), CoreConfig.skylake_2x()):
        base = simulate(tr, config=core, warmup=args.warmup)
        f = simulate(tr, config=core, predictor=fvp_default(), warmup=args.warmup)
        out.append((base.ipc, 100*(f.ipc/base.ipc-1)))
    print('hops %d pad %2d w %.2f | sky base %.2f fvp %+5.1f%% | 2x base %.2f fvp %+5.1f%% | amp %.1fx' % (
        hops, pad, w, out[0][0], out[0][1], out[1][0], out[1][1],
        out[1][1]/max(out[0][1], 0.01)))
