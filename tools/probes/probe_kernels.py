"""Single-kernel IndexedMiss dose-response (hit level, pad, footprint)."""
from _common import probe_args

args = probe_args("IndexedMiss dose-response: footprint x pad",
                  length=60_000, warmup=24_000)

from repro.core import fvp_default  # noqa: E402
from repro.pipeline import CoreConfig, simulate  # noqa: E402
from repro.predictors import make_predictor  # noqa: E402
from repro.trace.builder import (  # noqa: E402
    KernelSpec, WorkloadProfile, build_trace)
from repro.trace.kernels import IndexedMissKernel  # noqa: E402


def probe(label, spec):
    profile = WorkloadProfile(label, "ISPEC06", args.seed, [spec])
    tr = build_trace(profile, args.length)
    w = args.warmup
    base = simulate(tr, config=CoreConfig.skylake(), warmup=w)
    f = simulate(tr, config=CoreConfig.skylake(), predictor=fvp_default(), warmup=w)
    m = simulate(tr, config=CoreConfig.skylake(), predictor=make_predictor('mr-8kb'), warmup=w)
    base2 = simulate(tr, config=CoreConfig.skylake_2x(), warmup=w)
    f2 = simulate(tr, config=CoreConfig.skylake_2x(), predictor=fvp_default(), warmup=w)
    print('%-40s base %.3f | fvp %+6.1f%% cov %3.0f%% | mr8 %+5.1f%% | 2x base %.3f fvp %+6.1f%% | DRAM %d LLC %d L2 %d' % (
        label, base.ipc, 100*(f.ipc/base.ipc-1), 100*f.coverage, 100*(m.ipc/base.ipc-1),
        base2.ipc, 100*(f2.ipc/base2.ipc-1),
        base.level_counts.get('DRAM', 0), base.level_counts.get('LLC', 0), base.level_counts.get('L2', 0)))


for fp in (6 << 20, 48 << 20):
    for pad in (12, 32):
        probe(f'idx fp={fp >> 20}M pad={pad}',
              KernelSpec(IndexedMissKernel, 1.0, meta_base=0,
                         data_base=1 << 23, footprint=fp, alu_depth=3, pad=pad))
