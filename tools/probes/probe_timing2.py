"""Late-trace chain inspection: dump one IndexedMiss iteration's ops."""
import statistics

from _common import probe_args

args = probe_args("late-trace per-op dump of one IndexedMiss iteration",
                  length=40_000, warmup=0)

from repro.core import fvp_default  # noqa: E402
from repro.isa import opcodes  # noqa: E402
from repro.pipeline import CoreConfig, simulate  # noqa: E402
from repro.trace.builder import (  # noqa: E402
    KernelSpec, WorkloadProfile, build_trace)
from repro.trace.kernels import IndexedMissKernel  # noqa: E402

spec = KernelSpec(IndexedMissKernel, 1.0, meta_base=0,
                  data_base=1 << 22, footprint=48 << 20, alu_depth=5, pad=32)
profile = WorkloadProfile('probe', 'ISPEC06', args.seed, [spec])
tr = build_trace(profile, args.length)

for pred in (None, fvp_default()):
    r = simulate(tr, config=CoreConfig.skylake(), predictor=pred, collect_timing=True)
    t = r.timing
    miss_idx = [i for i, u in enumerate(tr)
                if u.op == opcodes.LOAD and u.srcs]
    last = miss_idx[-500:]
    d_miss = statistics.mean(t['issue'][i]-t['alloc'][i] for i in last)
    # consumer readiness: the addr ALU right before the miss = i-1
    d_ready = statistics.mean(t['ready'][i]-t['alloc'][i] for i in last)
    print('pred', pred.name if pred else 'none', 'IPC %.3f' % r.ipc,
          'last500 miss issue-alloc %.1f ready-alloc %.1f' % (d_miss, d_ready),
          'src', r.by_source)
    # chain inspect one iteration late in trace
    i = miss_idx[-100]
    for j in range(i-8, i+2):
        u = tr[j]
        print('   idx', j, 'op', u.op, 'pc', hex(u.pc), 'srcs', u.srcs,
              'alloc', t['alloc'][j], 'ready', t['ready'][j],
              'issue', t['issue'][j], 'complete', t['complete'][j])
