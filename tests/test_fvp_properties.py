"""Property-based tests on FVP's structural invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FVP
from repro.core.cit import CriticalInstructionTable
from repro.core.value_table import NO_PREDICT_MAX, ValueTable
from repro.isa import MicroOp, opcodes
from repro.pipeline import simulate
from repro.pipeline.vp_interface import EngineContext


@given(st.lists(st.integers(min_value=0, max_value=1 << 20),
                min_size=1, max_size=500))
@settings(max_examples=30, deadline=None)
def test_cit_occupancy_bounded(pcs):
    cit = CriticalInstructionTable(size=32)
    for pc in pcs:
        cit.record(pc)
    assert cit.occupancy() <= 32


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 16),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=400))
@settings(max_examples=30, deadline=None)
def test_value_table_occupancy_and_counter_ranges(events):
    vt = ValueTable(entries=48)
    for key, value in events:
        entry = vt.lookup(key)
        if entry is None:
            vt.allocate(key, value)
        else:
            vt.train(entry, value)
    assert vt.occupancy() <= 48
    for row in vt.rows:
        for entry in row:
            assert 0 <= entry.confidence <= 7
            assert 0 <= entry.no_predict <= NO_PREDICT_MAX
            assert 0 <= entry.utility <= 3


def _random_profile_trace(seed, n=800):
    rng = random.Random(seed)
    trace = []
    reg = 0
    for i in range(n):
        pc = 0x400000 + 4 * rng.randrange(48)
        roll = rng.random()
        if roll < 0.3:
            trace.append(MicroOp(pc, opcodes.LOAD, dest=rng.randrange(16),
                                 srcs=(reg % 16,),
                                 addr=64 * rng.randrange(1 << 12),
                                 value=rng.randrange(4)))
        elif roll < 0.4:
            trace.append(MicroOp(pc, opcodes.STORE, srcs=(reg % 16,),
                                 addr=64 * rng.randrange(64),
                                 value=rng.getrandbits(16)))
        elif roll < 0.55:
            trace.append(MicroOp(pc, opcodes.BRANCH,
                                 taken=rng.random() < 0.8, target=pc))
        else:
            reg = rng.randrange(16)
            trace.append(MicroOp(pc, opcodes.ALU, dest=reg,
                                 srcs=(rng.randrange(16),),
                                 value=rng.getrandbits(8)))
    return trace


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=10, deadline=None)
def test_fvp_structures_stay_bounded_under_random_traffic(seed):
    predictor = FVP()
    simulate(_random_profile_trace(seed), predictor=predictor)
    assert predictor.vt.occupancy() <= predictor.vt.capacity
    assert predictor.cit.occupancy() <= predictor.cit.size
    assert len(predictor.lt) <= predictor.lt.size
    # Storage accounting never changes at runtime.
    assert predictor.storage_bits() == 1196 * 8


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=10, deadline=None)
def test_fvp_never_predicts_nonloads_by_default(seed):
    result = simulate(_random_profile_trace(seed), predictor=FVP())
    assert result.predicted_nonloads == 0


@given(st.integers(min_value=0, max_value=1 << 30),
       st.integers(min_value=0, max_value=(1 << 32) - 1))
@settings(max_examples=200, deadline=None)
def test_vt_keys_lv_cv_never_collide_in_kind(pc, history):
    """LV and CV lookups are namespace-separated by the kind flag."""
    vt = ValueTable()
    lv = vt.allocate(ValueTable.lv_key(pc), 1, context=False)
    cv = vt.allocate(ValueTable.cv_key(pc, history), 2, context=True)
    assert lv is not None
    if cv is not None:
        assert lv is not cv
    found_lv = vt.lookup(ValueTable.lv_key(pc), context=False)
    assert found_lv is lv


def test_engine_context_defaults_are_safe():
    """A predictor driven with a fresh context must not crash on the
    default callables."""
    ctx = EngineContext()
    assert ctx.store_inflight_to_addr(0x1000) is None
    assert ctx.probe_level(0x1000) == "DRAM"
