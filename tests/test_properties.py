"""Property-based tests (hypothesis) on core data structures and
engine invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.history import GlobalHistory
from repro.isa import MicroOp, opcodes
from repro.memory.cache import Cache
from repro.pipeline import CoreConfig, simulate
from repro.predictors.common import TaggedTable, fold


# ----------------------------------------------------------------------
# Cache properties.
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                max_size=300))
@settings(max_examples=50, deadline=None)
def test_cache_lookup_after_lookup_hits(addrs):
    """Immediately re-looking-up any address hits (allocate-on-miss)."""
    cache = Cache(4096, 4, 64)
    for addr in addrs:
        cache.lookup(addr)
        assert cache.probe(addr)


@given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1,
                max_size=500))
@settings(max_examples=50, deadline=None)
def test_cache_occupancy_never_exceeds_capacity(addrs):
    cache = Cache(2048, 2, 64)
    capacity = 2048 // 64
    for addr in addrs:
        cache.lookup(addr)
        assert cache.occupancy() <= capacity


@given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1))
@settings(max_examples=30, deadline=None)
def test_cache_stats_consistent(addrs):
    cache = Cache(1024, 2, 64)
    for addr in addrs:
        cache.lookup(addr)
    assert cache.hits + cache.misses == len(addrs)


# ----------------------------------------------------------------------
# History algebra.
# ----------------------------------------------------------------------
@given(st.lists(st.booleans(), min_size=1, max_size=400),
       st.sampled_from([(8, 5), (16, 7), (32, 9), (48, 11)]))
@settings(max_examples=40, deadline=None)
def test_folded_history_matches_reference(outcomes, geometry):
    history_length, width = geometry
    hist = GlobalHistory(max_length=128)
    fold_reg = hist.register_fold(history_length, width)
    for outcome in outcomes:
        hist.push(outcome)
    assert fold_reg.value == hist.direct_fold(history_length, width)


#: A (length, width) view: widths 1-12, half of the lengths a multiple
#: of the width (the outgoing bit re-enters at bit 0, where the
#: entering bit also lands).
fold_geometry = st.integers(min_value=1, max_value=12).flatmap(
    lambda width: st.tuples(
        st.one_of(st.integers(min_value=1, max_value=16).map(
                      lambda multiple: multiple * width),
                  st.integers(min_value=1, max_value=192)),
        st.just(width)))


@given(st.lists(fold_geometry, min_size=1, max_size=24),
       st.lists(st.booleans(), max_size=300),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=0, max_value=24))
@settings(max_examples=60, deadline=None)
def test_packed_folds_match_reference(geometries, outcomes, late_after,
                                      split):
    """Many folds packed side by side in one register per width stay
    equal to the direct fold: a carry leaking out of one field into its
    neighbour would show.  Folds registered after some pushes start
    from the live history, and a repeated (length, width) gets the
    existing fold back."""
    hist = GlobalHistory(max_length=192)
    folds = {}

    def register(geometry):
        fold = hist.register_fold(*geometry)
        assert folds.setdefault(geometry, fold) is fold

    for geometry in geometries[:split]:
        register(geometry)
    for i, outcome in enumerate(outcomes):
        if i == late_after:
            for geometry in geometries[split:] + geometries[:split]:
                register(geometry)
        hist.push(outcome)
    for geometry in geometries:
        register(geometry)
    for (length, width), fold in folds.items():
        assert fold.value == hist.direct_fold(length, width)


@given(st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_recent_is_suffix(outcomes):
    hist = GlobalHistory()
    for outcome in outcomes:
        hist.push(outcome)
    assert hist.recent(8) == hist.recent(32) & 0xFF


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_fold_stays_in_width(bits, width):
    assert 0 <= fold(bits, width) < (1 << width)


# ----------------------------------------------------------------------
# Tagged table.
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                max_size=200))
@settings(max_examples=40, deadline=None)
def test_tagged_table_find_returns_allocated_or_miss(keys):
    table = TaggedTable(32)
    allocated = {}
    owner = {}  # slot -> key whose store last won it
    for key in keys:
        slot = table.allocate(key, key)
        if slot >= 0:
            assert table.find(key) == slot
            table.value[slot] = key
            allocated[key] = slot
            owner[slot] = key
    for key in keys:
        slot = table.find(key)
        assert -1 <= slot < table.capacity
        if slot >= 0 and allocated.get(key) == slot:
            # A surviving entry must carry what we stored.  The slot
            # alone is not enough: a tag-colliding later key can win
            # the same slot back from allocate(), so only assert when
            # this key's store was the last one.
            if owner[slot] == key:
                assert table.value[slot] == key


# ----------------------------------------------------------------------
# Engine invariants over random traces.
# ----------------------------------------------------------------------
def random_trace(seed, n=300):
    rng = random.Random(seed)
    trace = []
    for i in range(n):
        pc = 0x400000 + 4 * rng.randrange(64)
        kind = rng.random()
        if kind < 0.25:
            trace.append(MicroOp(pc, opcodes.LOAD, dest=rng.randrange(16),
                                 srcs=(rng.randrange(16),),
                                 addr=64 * rng.randrange(1 << 14),
                                 value=rng.getrandbits(32)))
        elif kind < 0.35:
            trace.append(MicroOp(pc, opcodes.STORE,
                                 srcs=(rng.randrange(16),),
                                 addr=64 * rng.randrange(1 << 14),
                                 value=rng.getrandbits(32)))
        elif kind < 0.5:
            trace.append(MicroOp(pc, opcodes.BRANCH,
                                 taken=rng.random() < 0.7,
                                 target=pc + 64))
        else:
            trace.append(MicroOp(pc, opcodes.ALU, dest=rng.randrange(16),
                                 srcs=(rng.randrange(16),),
                                 value=rng.getrandbits(32)))
    return trace


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_engine_timestamps_ordered_on_random_traces(seed):
    trace = random_trace(seed)
    result = simulate(trace, collect_timing=True)
    t = result.timing
    for i in range(len(trace)):
        assert t["alloc"][i] <= t["ready"][i] <= t["issue"][i] \
            < t["complete"][i] < t["retire"][i]
    # In-order alloc and retire.
    assert all(b >= a for a, b in zip(t["alloc"], t["alloc"][1:]))
    assert all(b >= a for a, b in zip(t["retire"], t["retire"][1:]))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_value_prediction_never_slows_correct_only_predictor(seed):
    """An oracle predictor that always predicts correctly can only help
    (or leave unchanged) every timestamp-derived metric."""
    from repro.pipeline.vp_interface import Prediction, ValuePredictor

    class PerfectLoadOracle(ValuePredictor):
        name = "perfect"

        def predict(self, uop, ctx):
            if uop.op == opcodes.LOAD:
                return Prediction(uop.value, source="oracle")
            return None

    trace = random_trace(seed)
    base = simulate(trace)
    oracle = simulate(trace, predictor=PerfectLoadOracle())
    assert oracle.wrong_predictions == 0
    assert oracle.cycles <= base.cycles + 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_fvp_accuracy_invariant_on_random_traces(seed):
    """FVP's confidence discipline: if it predicts at all on hostile
    random-value traces, accuracy stays high and flushes stay bounded."""
    from repro.core import FVP

    trace = random_trace(seed, n=600)
    result = simulate(trace, predictor=FVP())
    total = result.correct_predictions + result.wrong_predictions
    if total > 50:
        assert result.accuracy > 0.90


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=10, deadline=None)
def test_skylake2x_never_slower(seed):
    """The doubled machine is a strict resource superset: it must not
    lose to the narrow machine on any trace."""
    trace = random_trace(seed, n=400)
    narrow = simulate(trace, config=CoreConfig.skylake())
    wide = simulate(trace, config=CoreConfig.skylake_2x())
    assert wide.cycles <= narrow.cycles * 1.02 + 8


# ----------------------------------------------------------------------
# Retirement-stall signal: the scalar loop's O(1) rule.
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=20), max_size=60),
       st.integers(min_value=0, max_value=600),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=300, deadline=None)
def test_o1_stall_rule_matches_rob_head_bisect(gaps, complete_t, late,
                                               retire_width):
    """docs/ENGINE.md finds the ROB head by bisecting the retire times
    of older ops; the scalar loop compares one of them.  The two agree
    on any non-decreasing retire-time array."""
    from bisect import bisect_right
    from itertools import accumulate

    retire_times = list(accumulate(gaps))  # non-decreasing
    idx = len(retire_times)
    # retire_t is complete_t + 1 (completion-bound) or later.
    retire_t = complete_t + 1 + late
    head = bisect_right(retire_times, complete_t, 0, idx)
    spec = idx - head < retire_width and retire_t == complete_t + 1
    o1 = retire_t == complete_t + 1 and (
        idx < retire_width
        or retire_times[idx - retire_width] <= complete_t)
    assert o1 == spec
