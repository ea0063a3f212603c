"""Calibration harness: subset of workloads, all key predictors,
prints category summaries + figure-10 aggregates vs paper targets."""
import sys, time
from repro.experiments.runner import Runner
from repro.analysis.metrics import category_summary, overall_gain, overall_coverage

SUBSET = {
    'FSPEC06': ['bwaves', 'milc', 'povray', 'wrf', 'namd'],
    'ISPEC06': ['perlbench', 'omnetpp', 'hmmer', 'astar', 'mcf'],
    'Server': ['hadoop', 'specjbb', 'tpce', 'spark', 'cassandra'],
    'SPEC17': ['leela17', 'xz17', 'roms17', 'cam417'],
}
workloads = [w for ws in SUBSET.values() for w in ws]
length = int(sys.argv[1]) if len(sys.argv) > 1 else 80000
runner = Runner(length=length, warmup=length // 2 - 1000, workloads=workloads)

t0 = time.time()
def show(name, core='skylake'):
    runs = runner.suite(name, core=core)
    summary = category_summary(runs)
    row = ' '.join('%s %+5.1f%%/%2.0f%%' % (c[:4], 100*s['gain'], 100*s['coverage'])
                   for c, s in summary.items())
    print('%-14s %-10s %s' % (name if isinstance(name, str) else 'oracle', core, row))
    return runs

# Every cell below as one campaign: each trace is built once.
runner.results(runner.plan(
    [(p, 'skylake') for p in ('fvp', 'mr-8kb', 'composite-8kb', 'mr-1kb',
                              'composite-1kb', 'fvp-reg', 'fvp-mem',
                              'fvp-l1-miss', 'fvp-l1-miss-only')]
    + [('fvp', 'skylake-2x')]))
show('fvp')
show('fvp', 'skylake-2x')
for p in ('mr-8kb', 'composite-8kb', 'mr-1kb', 'composite-1kb'):
    show(p)
show('fvp-reg'); show('fvp-mem')
show('fvp-l1-miss'); show('fvp-l1-miss-only')
print('%.0fs' % (time.time()-t0))
print()
print('paper fig6 : FSPE +2.6/16 ISPE +4.6/31 Serv +5.7/35 SP17 +0.9/18 | geo +3.3/25')
print('paper fig7 : FSPE +7.0    ISPE +15.1   Serv +11.7   SP17 +2.5    | geo +8.6')
print('paper fig10: mr8 +3.8/18 comp8 +3.9/39 fvp +3.3/25 mr1 +1.1/11 comp1 +1.7/24')
print('paper fig13: reg: FSPE 2.10 ISPE 2.14 Serv 0.42 SP17 0.29 | mem: 0.46 2.42 5.28 0.63')
print('paper fig12: l1only +0.0/6 l1 +2.1/15 fvp +3.3/25 oracle +3.9/19')
