"""Unit tests for the front end (ITTAGE, BTB, I-cache feed)."""

import hashlib
import random

import pytest

from repro.experiments.runner import core_config
from repro.frontend.fetch import FrontEnd, FrontEndConfig
from repro.frontend.history import GlobalHistory
from repro.frontend.ittage import Ittage
from repro.frontend.tage import Tage, TageConfig
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


def indirect_jump_stream(n=6000, seed=21):
    """Control ops (pc, op, taken, target key) mixing conditional
    branches, direct jumps and four indirect jumps; an indirect jump's
    target key is resolved against the live history by the caller."""
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.6:
            pc = 0x400000 + 4 * rng.randrange(24)
            taken = rng.random() < (0.9 if pc & 4 else 0.5)
            ops.append((pc, opcodes.BRANCH, taken, pc + 0x40))
        elif r < 0.65:
            pc = 0x410000 + 4 * rng.randrange(4)
            ops.append((pc, opcodes.JUMP, True, pc + 0x1000))
        else:
            key = rng.randrange(4)
            ops.append((0x420000 + 16 * key, opcodes.IJUMP, True, key))
    return ops


def state_digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_indirect_jump_golden_pin():
    """History-correlated indirect targets through a Skylake front end:
    each indirect jump picks one of four targets from two history bits
    at depth 1, 6, 20 or 70, so all three ITTAGE tables allocate and
    hit.  Pinned: sha256 of the outcomes, final history bits,
    tage.mispredicts, ittage.lookups, ittage.mispredicts, btb_misses,
    front-end mispredicts, and a digest of ITTAGE's tables (tag,
    target, confidence per slot, then the base table), all computed
    before the tables became columns."""
    fe = FrontEnd(core_config("skylake").frontend)
    outcomes = bytearray()
    for pc, op, taken, target in indirect_jump_stream():
        if op == opcodes.IJUMP:
            depth = (1, 6, 20, 70)[target]
            target = (0x500000 + 0x1000 * target
                      + 0x40 * ((fe.history.bits >> depth) & 3))
        outcomes.append(fe.process_control(pc, op, taken, target))
    tables = [list(zip(tags, targets, confidence))
              for _index, _tag, tags, targets, confidence
              in fe.ittage.tables]
    got = (hashlib.sha256(bytes(outcomes)).hexdigest(), fe.history.bits,
           fe.tage.mispredicts, fe.ittage.lookups, fe.ittage.mispredicts,
           fe.btb_misses, fe.mispredicts,
           state_digest([tables, sorted(fe.ittage.base.items())]))
    assert got == (
        "de6a8925a156b2f2bced15dd8f9feace2b3a3663df175dae09a07e5bc2e03412",
        0xefff7dbdfcffffffdf7f9dff7fdff775efbfedf7b99ff7fffbfeff7fedfffffe,
        1151, 2132, 779, 1052, 1952,
        "e315e742f269f6c9b9018195617fc2dd91e8b777a15e91f022b17735367b0530")


def test_tage_useful_aging_golden_pin():
    """A TAGE whose useful bits age every 256 branches, driven for 6000
    branches (23 agings) over twelve PCs: four copy a random leading
    outcome, four are random, four follow short periods.  Pinned:
    sha256 of the outcomes, final history bits, mispredicts,
    use_alt_on_new_alloc, the xorshift state, and a digest of every
    table (tag, counter, useful per slot, then the bimodal table), all
    computed before the tables became columns.  The default aging
    period gives other outcomes on the same stream."""
    tage = Tage(TageConfig(useful_reset_period=256))
    rng = random.Random(5)
    outcomes = bytearray()
    lead = False
    for i in range(6000):
        k = rng.randrange(12)
        if k < 4:
            taken = lead
        elif k < 8:
            taken = rng.random() < 0.5
        else:
            taken = (i // (k - 5)) % 3 != 0
        if k == 11:
            lead = rng.random() < 0.5
        outcomes.append(tage.predict_and_train(0x400000 + 8 * k, taken))
    tables = [list(zip(table.tags, table.counters, table.useful))
              for table in tage.tables]
    got = (hashlib.sha256(bytes(outcomes)).hexdigest(), tage.history.bits,
           tage.mispredicts, tage.use_alt_on_new_alloc, tage._rng_state,
           state_digest([tables, tage.bimodal]))
    assert got == (
        "118c4ba7ec2841e03a94089ca3b85cbe6c03487ec0db2d0bd2eb76aee400c17e",
        0x51b7a0df4429b5017b78051e9db88090, 2473, 4, 1506124356,
        "644f7518495166cb3b6460f31afadbaefd721ef235d0947c38e0b3e7296fe7e1")
