"""Unit tests for the front end (ITTAGE, BTB, I-cache feed)."""

import hashlib
import random

import pytest

from repro.experiments.runner import core_config
from repro.frontend.fetch import FrontEnd, FrontEndConfig
from repro.frontend.history import GlobalHistory
from repro.frontend.ittage import Ittage
from repro.isa import opcodes
from repro.trace import builder
from repro.trace.workloads import get_profile


class TestIttage:
    def test_monomorphic_target_learned(self):
        hist = GlobalHistory()
        ittage = Ittage(hist)
        pc, target = 0x400000, 0x500000
        correct = 0
        for _ in range(100):
            if ittage.predict_and_train(pc, target):
                correct += 1
            hist.push(True)
        assert correct > 90

    def test_history_correlated_targets(self):
        hist = GlobalHistory()
        ittage = Ittage(hist)
        pc = 0x400000
        rng = random.Random(3)
        correct = total = 0
        for i in range(3000):
            lead = rng.random() < 0.5
            hist.push(lead)
            target = 0x500000 if lead else 0x600000
            if i > 1500:
                total += 1
                if ittage.predict_and_train(pc, target):
                    correct += 1
            else:
                ittage.predict_and_train(pc, target)
        assert correct / total > 0.7

    def test_cold_predicts_zero(self):
        ittage = Ittage(GlobalHistory())
        assert ittage.predict(0x400000) == 0


class TestFrontEnd:
    def test_conditional_branch_flow(self):
        fe = FrontEnd()
        correct = sum(
            fe.process_control(0x400000, opcodes.BRANCH, True, 0x400100)
            for _ in range(200))
        assert correct > 190

    def test_direct_jump_only_cold_misses(self):
        fe = FrontEnd()
        assert fe.process_control(0x400000, opcodes.JUMP, True,
                                  0x500000) is False  # cold BTB
        assert fe.process_control(0x400000, opcodes.JUMP, True,
                                  0x500000) is True

    def test_indirect_jump_uses_ittage(self):
        fe = FrontEnd()
        correct = 0
        for _ in range(100):
            if fe.process_control(0x400000, opcodes.IJUMP, True, 0x500000):
                correct += 1
        assert correct > 80

    def test_history_shared_with_value_prediction(self):
        fe = FrontEnd()
        fe.process_control(0x400000, opcodes.BRANCH, True, 0x400100)
        fe.process_control(0x400040, opcodes.BRANCH, False, 0x400100)
        # Newest outcome (not-taken) is bit 0.
        assert fe.history.recent(2) == 0b10

    def test_rejects_non_control(self):
        import pytest

        fe = FrontEnd()
        with pytest.raises(ValueError):
            fe.process_control(0x400000, opcodes.LOAD, True, 0)

    def test_mispredict_rate(self):
        fe = FrontEnd()
        for _ in range(100):
            fe.process_control(0x400000, opcodes.BRANCH, True, 0x400100)
        assert fe.mispredict_rate < 0.1


class TestFetchBubbles:
    def test_same_line_no_bubble(self):
        fe = FrontEnd()
        fe.fetch_bubbles(0x400000)
        assert fe.fetch_bubbles(0x400004) == 0

    def test_cold_line_costs_miss_penalty(self):
        cfg = FrontEndConfig()
        fe = FrontEnd(cfg)
        assert fe.fetch_bubbles(0x400000) == cfg.icache_miss_penalty

    def test_warm_line_free(self):
        fe = FrontEnd()
        fe.fetch_bubbles(0x400000)
        fe.fetch_bubbles(0x400040)  # new line
        assert fe.fetch_bubbles(0x400000) == 0  # warm again

    def test_large_code_footprint_misses(self):
        cfg = FrontEndConfig(icache_size=4096, icache_assoc=2)
        fe = FrontEnd(cfg)
        lines = 4096 // 64
        total = 0
        for sweep in range(2):
            for i in range(lines * 4):
                total += fe.fetch_bubbles(0x400000 + i * 64)
        assert total > 0


#: Front-end state after driving every control op of a catalogue trace
#: (20k ops, stable catalogue seed) through a fresh Skylake front end:
#: (sha256 of the per-op outcome bytes, final history bits,
#: tage.mispredicts, tage.use_alt_on_new_alloc, tage._rng_state,
#: ittage.mispredicts, btb_misses).  Any change to TAGE, ITTAGE, the
#: BTB or the folded-history registers that is not bit-identical moves
#: at least one of these.
FRONTEND_PINS = {
    "gcc": (
        "a9da3e1fbcb136c1a850600c98ce3d379262a311285a83bcd86d5a056965cdbd",
        0xfff7ffffffdffffffffffffdff5ffffbfffffffffffff7ffffffffefffffef7f,
        90, 7, 2370021530, 0, 7),
    "xz17": (
        "9e9f06a16056556694008f60f7e21d8fd613869f1d001519bcbafbc1fc3e23da",
        0xff3da8f9f23f38eff9dceb1ffff7ffffc77f4d5767ffefffcdc7eff3f37c7beb,
        784, 5, 349991822, 0, 57),
}


@pytest.mark.parametrize("workload", sorted(FRONTEND_PINS))
def test_frontend_golden_pin(workload):
    trace = builder.build_trace(get_profile(workload), 20_000)
    fe = FrontEnd(core_config("skylake").frontend)
    outcomes = bytes(
        fe.process_control(uop.pc, uop.op, uop.taken, uop.target)
        for uop in trace if uop.op in opcodes.CONTROL)
    got = (hashlib.sha256(outcomes).hexdigest(), fe.history.bits,
           fe.tage.mispredicts, fe.tage.use_alt_on_new_alloc,
           fe.tage._rng_state, fe.ittage.mispredicts, fe.btb_misses)
    assert got == FRONTEND_PINS[workload]
