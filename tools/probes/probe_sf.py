"""StoreForward/Chase gains per parameter point."""
from _common import probe_args

args = probe_args("StoreForward and pointer-chase gains per parameter "
                  "point", length=60_000, warmup=24_000)

from repro.core import (  # noqa: E402
    fvp_default, fvp_memory_only, fvp_register_only)
from repro.pipeline import CoreConfig, simulate  # noqa: E402
from repro.predictors import make_predictor  # noqa: E402
from repro.trace.builder import (  # noqa: E402
    KernelSpec, WorkloadProfile, build_trace)
from repro.trace.kernels import ChaseKernel, StoreForwardKernel  # noqa: E402


def probe(label, spec):
    profile = WorkloadProfile(label, "Server", args.seed, [spec])
    tr = build_trace(profile, args.length)
    w = args.warmup
    base = simulate(tr, config=CoreConfig.skylake(), warmup=w)
    f = simulate(tr, config=CoreConfig.skylake(), predictor=fvp_default(), warmup=w)
    fm = simulate(tr, config=CoreConfig.skylake(), predictor=fvp_memory_only(), warmup=w)
    fr = simulate(tr, config=CoreConfig.skylake(), predictor=fvp_register_only(), warmup=w)
    m = simulate(tr, config=CoreConfig.skylake(), predictor=make_predictor('mr-8kb'), warmup=w)
    print('%-34s base %.3f | fvp %+6.1f%% cov %3.0f%% | fvp-mem %+6.1f%% | fvp-reg %+6.1f%% | mr8 %+6.1f%% cov %2.0f%%' % (
        label, base.ipc, 100*(f.ipc/base.ipc-1), 100*f.coverage,
        100*(fm.ipc/base.ipc-1), 100*(fr.ipc/base.ipc-1),
        100*(m.ipc/base.ipc-1), 100*m.coverage))


for depth in (6, 12):
    for pad in (12, 32):
        probe(f'sf depth={depth} pad={pad}',
              KernelSpec(StoreForwardKernel, 1.0, src_base=0, queue_base=1 << 20,
                         data_base=1 << 23, footprint=24 << 20, addr_depth=depth, pad=pad))
probe('chase stable nodes=2048',
      KernelSpec(ChaseKernel, 1.0, region_base=0, nodes=2048, spacing=4096 + 64))
probe('chase shuffled (mcf-like)',
      KernelSpec(ChaseKernel, 1.0, region_base=0, nodes=4096, spacing=4096 + 64, shuffle_period=1))

for depth in (2, 4, 8):
    for pad in (8, 20):
        probe(f'sf CARRIED depth={depth} pad={pad}',
              KernelSpec(StoreForwardKernel, 1.0, src_base=0, queue_base=1 << 20,
                         data_base=1 << 23, carried=True, addr_depth=depth,
                         produce_depth=2, pad=pad))
