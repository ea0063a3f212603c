"""Engine resource semantics: IQ, LQ/SQ and front-end occupancy, and
the lifetime and allocation footprint of the engine itself."""

import gc
import weakref

import pytest

from repro.isa import MicroOp, alu, load, opcodes, store
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import CoreConfig, simulate
from repro.pipeline.engine import BACKENDS, Engine
from repro.predictors import make_predictor
from repro.trace import build_trace
from repro.trace.workloads import get_profile


def miss_plus_filler_trace(iterations=40, filler=60):
    """One DRAM miss + a long-latency dependent per iteration, plus a
    sea of independent filler — the pattern where a FIFO-freed issue
    queue would wrongly serialize on the stalled dependent."""
    trace = []
    for i in range(iterations):
        base = 0x400000 + 4 * (i % 8) * 32
        # Spread misses across DRAM banks (line interleaving is modulo
        # 32 lines) so bank queueing doesn't mask the queue effects.
        trace.append(load(base, dest=1,
                          addr=0x40000000 + (i << 21) + (i % 32) * 64))
        trace.append(alu(base + 4, dest=2, srcs=(1,)))
        for j in range(filler):
            trace.append(MicroOp(0x500000 + 4 * (j % 32), opcodes.FP,
                                 dest=3, srcs=(), value=j))
    return trace


class TestIssueQueue:
    def test_stalled_consumer_does_not_block_whole_queue(self):
        """With issue-freed (out-of-order) IQ entries, shrinking the IQ
        below the filler count must not collapse throughput the way a
        FIFO model would: only ~1 entry per iteration is held by the
        miss's dependent."""
        trace = miss_plus_filler_trace()
        big = CoreConfig.skylake()
        small = CoreConfig.skylake()
        small.iq_size = 40
        big_result = simulate(trace, config=big)
        small_result = simulate(trace, config=small)
        # A FIFO-freed IQ of 40 would be catastrophic here (every op
        # behind the stalled dependent waits); the real model loses
        # some throughput but stays within 2x.
        assert small_result.cycles < 2 * big_result.cycles

    def test_tiny_iq_still_binds_eventually(self):
        trace = miss_plus_filler_trace()
        tiny = CoreConfig.skylake()
        tiny.iq_size = 4
        normal = simulate(trace, config=CoreConfig.skylake())
        bound = simulate(trace, config=tiny)
        assert bound.cycles > normal.cycles


class TestLoadStoreQueues:
    def test_small_lq_limits_outstanding_loads(self):
        trace = []
        for i in range(400):
            trace.append(load(0x400000 + 4 * (i % 8), dest=1,
                              addr=0x40000000 + (i << 20) + (i % 32) * 64))
        small = CoreConfig.skylake()
        small.lq_size = 4
        assert simulate(trace, config=small).cycles > \
            simulate(trace, config=CoreConfig.skylake()).cycles

    def test_small_sq_limits_outstanding_stores(self):
        trace = []
        for i in range(400):
            # Dependent chain so stores retire slowly.
            trace.append(MicroOp(0x400000, opcodes.DIV, dest=1, srcs=(1,)))
            trace.append(store(0x400004, addr=0x1000 + 8 * (i % 64),
                               srcs=(1,)))
        small = CoreConfig.skylake()
        small.sq_size = 2
        assert simulate(trace, config=small).cycles >= \
            simulate(trace, config=CoreConfig.skylake()).cycles


class TestFrontEndEffects:
    def test_icache_footprint_costs_cycles(self):
        compact, sprawling = [], []
        for i in range(3000):
            compact.append(alu(0x400000 + 4 * (i % 16), dest=i % 8))
            # One op per line, cycling 4 MB of code.
            sprawling.append(alu(0x400000 + 64 * (i % 65536), dest=i % 8))
        assert simulate(sprawling).cycles > simulate(compact).cycles

    def test_mem_violation_penalty_applies(self):
        """A load racing an older store to the same address without a
        store-sets hit costs a violation flush at least once."""
        trace = []
        for i in range(100):
            base = 0x400000 + 16 * (i % 4)
            trace.append(MicroOp(base, opcodes.MUL, dest=1, srcs=(1,),
                                 value=i))
            trace.append(store(base + 4, addr=0x2000, srcs=(1,), value=i))
            trace.append(load(base + 8, dest=2, addr=0x2000, value=i))
        result = simulate(trace)
        assert result.mem_violations >= 1
        # Store-sets learn: violations stay rare.
        assert result.mem_violations < 20


@pytest.fixture
def collector_off():
    """Run the test body with the cycle collector disabled, so only
    reference counting can free objects."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestEngineLifetime:
    @pytest.mark.parametrize("predictor", ["baseline", "fvp", "dlvp"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_finished_engine_is_freed_without_the_collector(
            self, collector_off, backend, predictor):
        """No reference cycle keeps a finished Engine alive: dropping
        the engine and its result frees it by reference counting
        alone, with nothing left for the cycle collector."""
        if backend == "vector":
            pytest.importorskip("numpy")
        trace = build_trace(get_profile("astar"), 2000)
        engine = Engine(CoreConfig.skylake(), make_predictor(predictor),
                        backend=backend)
        result = engine.run(trace, warmup=500)
        assert result.instructions == len(trace) - 500
        ref = weakref.ref(engine)
        del engine, result
        assert ref() is None

    def test_memory_hierarchy_allocates_nothing_per_set(self,
                                                        collector_off):
        """The Table II hierarchy has 8,512 cache sets; a container per
        set tracked by the cycle collector would show up here."""
        before = len(gc.get_objects())
        memory = MemoryHierarchy()
        added = len(gc.get_objects()) - before
        assert memory.llc.num_sets == 8192
        assert added < 100

    def test_engine_allocates_nothing_per_predictor_entry(self,
                                                          collector_off):
        """TAGE's five tables hold 2,560 entries and ITTAGE's three 768;
        an object per entry (or per cache set) tracked by the cycle
        collector would show up here."""
        before = len(gc.get_objects())
        engine = Engine(CoreConfig.skylake())
        added = len(gc.get_objects()) - before
        assert len(engine.frontend.tage.tables) == 5
        assert added <= 200
