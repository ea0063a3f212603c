"""Per-op timing inspection of the IndexedMiss chain (load classes)."""
import statistics
from collections import Counter

from _common import probe_args

args = probe_args("per-op timing of the IndexedMiss chain",
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

loads = [u.pc for u in tr if u.op == opcodes.LOAD]
print('load pcs:', Counter(loads).most_common(3))

for pred in (None, fvp_default()):
    r = simulate(tr, config=CoreConfig.skylake(), predictor=pred, collect_timing=True)
    t = r.timing
    # miss loads carry srcs (the computed index); meta loads do not.
    miss_idx = [i for i, u in enumerate(tr)
                if u.op == opcodes.LOAD and u.srcs][:2000]
    meta_idx = [i for i, u in enumerate(tr)
                if u.op == opcodes.LOAD and not u.srcs][:2000]
    # The middle half of each sample ([500:1500] at full length), so
    # short traces still have data points.
    miss_mid = miss_idx[len(miss_idx) // 4:3 * len(miss_idx) // 4]
    meta_mid = meta_idx[len(meta_idx) // 4:3 * len(meta_idx) // 4]
    d_miss = statistics.mean(t['issue'][i]-t['alloc'][i] for i in miss_mid)
    lat_miss = statistics.mean(t['complete'][i]-t['issue'][i] for i in miss_mid)
    d_meta = statistics.mean(t['complete'][i]-t['alloc'][i] for i in meta_mid)
    print('pred', pred.name if pred else 'none', 'IPC %.3f' % r.ipc,
          'miss issue-alloc %.1f' % d_miss, 'miss lat %.1f' % lat_miss,
          'meta complete-alloc %.1f' % d_meta, 'cov %.2f' % r.coverage)
