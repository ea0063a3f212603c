"""Unit and behavioural tests for the cycle-level OOO engine."""

import pytest

from repro.isa import MicroOp, alu, branch, load, opcodes, store
from repro.pipeline import CoreConfig, simulate


def pcs(n, base=0x400000):
    return [base + 4 * i for i in range(n)]


class TestBasicTiming:
    def test_empty_trace(self):
        result = simulate([])
        assert result.instructions == 0 and result.cycles == 0

    def test_independent_alus_hit_fetch_width(self):
        # 4-wide fetch is the narrowest stage for independent ALU ops
        # (PCs cycle a warm I-cache line set).
        trace = [alu(0x400000 + 4 * (i % 64), dest=i % 8)
                 for i in range(4000)]
        result = simulate(trace)
        assert result.ipc == pytest.approx(4.0, rel=0.15)

    def test_serial_chain_runs_at_one_per_cycle(self):
        trace = [alu(pc, dest=0, srcs=(0,)) for pc in pcs(2000)]
        result = simulate(trace)
        assert result.ipc == pytest.approx(1.0, rel=0.1)

    def test_div_latency_hurts_chains(self):
        chain = [alu(pc, dest=0, srcs=(0,)) for pc in pcs(500)]
        divs = [MicroOp(pc, opcodes.DIV, dest=0, srcs=(0,))
                for pc in pcs(500)]
        assert simulate(divs).ipc < simulate(chain).ipc / 4

    def test_load_ports_cap_throughput(self):
        # Independent L1-hitting loads: 2 load ports -> IPC <= 2.
        trace = [load(0x400000 + 4 * (i % 16), dest=0,
                      addr=0x1000 + (i % 4) * 8) for i in range(3000)]
        result = simulate(trace)
        assert 1.5 < result.ipc <= 2.05

    def test_dataflow_consumer_waits_for_load(self):
        # load -> dependent ALU chain is slower than the same chain fed
        # by a register.
        with_load, without_load = [], []
        for i in range(600):
            base = 0x400000 + 64 * i
            with_load.append(load(base, dest=1, addr=0x1000))
            with_load.append(alu(base + 4, dest=2, srcs=(1,)))
            without_load.append(alu(base, dest=1))
            without_load.append(alu(base + 4, dest=2, srcs=(1,)))
        assert simulate(with_load).cycles > simulate(without_load).cycles

    def test_rob_limits_outstanding_misses(self):
        """Serial DRAM misses with a tiny ROB serialise; a big ROB
        overlaps them."""
        trace = []
        for i in range(64):
            pc = 0x400000 + 4 * (i % 4)
            # Each iteration: one far-apart (DRAM) independent load +
            # padding.
            trace.append(load(pc, dest=1, addr=0x100000 + i * 1 << 20))
            for j in range(31):
                trace.append(alu(0x500000 + 4 * j, dest=2))
        small = CoreConfig.skylake()
        small.rob_size = 32
        big = CoreConfig.skylake()
        assert simulate(trace, config=small).cycles > simulate(trace, config=big).cycles


class TestControlFlow:
    def test_mispredicts_cost_cycles(self):
        import random

        rng = random.Random(1)
        predictable, unpredictable = [], []
        for i in range(800):
            predictable.append(branch(0x400000, taken=True, target=0x400000))
            predictable.append(alu(0x400004, dest=0))
            unpredictable.append(branch(0x500000,
                                        taken=rng.random() < 0.5,
                                        target=0x500000))
            unpredictable.append(alu(0x500004, dest=0))
        good = simulate(predictable)
        bad = simulate(unpredictable)
        assert bad.branch_mispredicts > good.branch_mispredicts
        assert bad.cycles > good.cycles * 2

    def test_branch_counts(self):
        trace = [branch(0x400000, taken=True, target=0x400000)
                 for _ in range(100)]
        result = simulate(trace)
        assert result.branches == 100


class TestStoreLoadForwarding:
    def test_forwarded_load_faster_than_dram(self):
        # store to a cold address, then immediately load it: forwarding
        # beats the DRAM round trip.
        fwd_trace, cold_trace = [], []
        for i in range(200):
            addr = 0x40000000 + (i << 20)
            pc = 0x400000 + 16 * (i % 8)
            fwd_trace.append(store(pc, addr=addr, srcs=(1,), value=7))
            fwd_trace.append(load(pc + 4, dest=2, addr=addr, value=7))
            cold_trace.append(alu(pc, dest=1))
            cold_trace.append(load(pc + 4, dest=2, addr=addr))
        assert simulate(fwd_trace).cycles < simulate(cold_trace).cycles

    def test_forwarding_event_reaches_predictor(self):
        from repro.pipeline.vp_interface import ValuePredictor

        events = []

        class Spy(ValuePredictor):
            name = "spy"

            def on_forwarding(self, store_pc, load_pc, store_seq):
                events.append((store_pc, load_pc, store_seq))

        trace = []
        for i in range(50):
            trace.append(store(0x400000, addr=0x1000, srcs=(1,), value=i))
            trace.append(load(0x400004, dest=2, addr=0x1000, value=i))
        simulate(trace, predictor=Spy())
        assert events
        assert all(spc == 0x400000 and lpc == 0x400004
                   for spc, lpc, _ in events)


class TestWarmup:
    def test_warmup_excludes_prefix(self):
        trace = [alu(0x400000 + 4 * (i % 64), dest=i % 8)
                 for i in range(4000)]
        full = simulate(trace)
        warm = simulate(trace, warmup=2000)
        assert warm.instructions == 2000
        assert warm.ipc == pytest.approx(full.ipc, rel=0.2)

    def test_bad_warmup_rejected(self):
        trace = [alu(0x400000, dest=0)]
        with pytest.raises(ValueError):
            simulate(trace, warmup=5)
        with pytest.raises(ValueError):
            simulate(trace, warmup=-1)


class TestTimingCollection:
    def test_timestamps_are_ordered(self):
        trace = [alu(0x400000 + 4 * i, dest=i % 8, srcs=((i + 1) % 8,))
                 for i in range(500)]
        result = simulate(trace, collect_timing=True)
        t = result.timing
        for i in range(500):
            assert t["alloc"][i] <= t["ready"][i] <= t["issue"][i] \
                < t["complete"][i] < t["retire"][i]

    def test_alloc_and_retire_monotone(self):
        trace = [alu(0x400000 + 4 * i, dest=0, srcs=(0,))
                 for i in range(500)]
        t = simulate(trace, collect_timing=True).timing
        for a, b in zip(t["alloc"], t["alloc"][1:]):
            assert b >= a
        for a, b in zip(t["retire"], t["retire"][1:]):
            assert b >= a

    def test_no_timing_by_default(self):
        assert simulate([alu(0x400000, dest=0)]).timing is None


class TestResultInvariants:
    def test_counts_add_up(self):
        from repro.trace import build_trace, get_profile

        trace = build_trace(get_profile("astar"), 5000)
        result = simulate(trace, workload="astar")
        assert result.loads + result.stores <= result.instructions
        assert result.correct_predictions + result.wrong_predictions == 0

    def test_speedup_requires_same_trace(self):
        a = simulate([alu(0x400000, dest=0)] * 10)
        b = simulate([alu(0x400000, dest=0)] * 20)
        with pytest.raises(ValueError):
            b.speedup_over(a)
