import sys
from repro.trace import build_trace, get_profile, trace_stats
from repro.pipeline import simulate, CoreConfig
from repro.core import fvp_default
from repro.predictors import make_predictor
from collections import Counter
from repro.isa import opcodes

wl = sys.argv[1] if len(sys.argv) > 1 else 'bwaves'
tr = build_trace(get_profile(wl), 60000)
print(trace_stats(tr))
base = simulate(tr, config=CoreConfig.skylake(), warmup=29000, collect_timing=True)
print('base IPC %.3f' % base.ipc, base.level_counts, 'brMiss', base.branch_mispredicts)
p = fvp_default()
pred_pcs = Counter()
orig = p.predict
def spy(uop, ctx):
    out = orig(uop, ctx)
    if out is not None:
        pred_pcs[(hex(uop.pc), out.source)] += 1
    return out
p.predict = spy
r = simulate(tr, config=CoreConfig.skylake(), predictor=p, warmup=29000)
print('fvp IPC %.3f (%+.1f%%) cov %.2f acc %.3f' % (r.ipc, 100*(r.ipc/base.ipc-1), r.coverage, r.accuracy))
print('top predicted:', pred_pcs.most_common(8))
# what level do meta loads hit? pc 0x400000 region kernel0
import statistics
t = base.timing
lat = {}
for i, u in enumerate(tr):
    if u.op == opcodes.LOAD:
        lat.setdefault(u.pc, []).append(t['complete'][i]-t['issue'][i])
for pc, ls in sorted(lat.items()):
    if len(ls) > 300:
        print('load pc %x: n=%d mean latency %.1f' % (pc, len(ls), statistics.mean(ls[len(ls)//2:])))
