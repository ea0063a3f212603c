"""The scalar timing loop against the cycle-stepped oracle (tests/oracle.py).

Both sides get the same trace and ``CoreConfig``, a memory whose
latency is fixed per 8-byte block, the fetch bubbles and branch
outcomes of one program-order replay of a fresh ``FrontEnd``, and the
same table of value predictions.  They must agree on every op's five
timestamps, the cycle count and the retirement-stall signal.

Here every unit count and the issue width are at least the ROB size,
so no op waits for a unit or an issue slot and ``issue == ready``
under any issue policy; the issue policy is the strict xfail below.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend.fetch import FrontEnd, FrontEndConfig
from repro.isa import alu, load, opcodes, store
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.pipeline.config import CoreConfig, PortGroup
from repro.pipeline.engine import Engine
from repro.pipeline.vp_interface import Prediction, ValuePredictor
from tests.helpers import TRACE_SHAPES, random_trace
from tests.oracle import TIMESTAMPS, run_oracle

#: Load latencies a block can have: L1, L2, LLC and a DRAM-like miss.
LATENCIES = (5, 15, 40, 90)


class FixedLatencyMemory(MemoryHierarchy):
    """No prefetch, no DRAM queue: ``latency_of(addr)`` per access."""

    __slots__ = ("latency_of",)

    def __init__(self, latency_of) -> None:
        super().__init__()
        self.latency_of = latency_of

    def access(self, pc, addr, cycle, is_store=False):
        latency = self.latency_of(addr)
        return AccessResult(latency, "L1" if latency == 5 else "DRAM")


def block_latency(salt):
    return lambda addr: LATENCIES[hash((addr >> 3, salt)) % len(LATENCIES)]


class TablePredictor(ValuePredictor):
    """Predicts from a table keyed by sequence number; records the
    retirement-stall signal training receives, and forwards seen."""

    name = "table"

    def __init__(self, table) -> None:
        self.table, self.stalls, self.forwards = table, {}, 0

    def predict(self, uop, ctx):
        return self.table.get(ctx.seq)

    def train_execute(self, uop, ctx, used_prediction, correct):
        self.stalls[ctx.seq] = ctx.stalls_retirement

    def on_forwarding(self, store_pc, load_pc, store_seq):
        self.forwards += 1


def prediction_table(trace, seed):
    """Predictions for ~40% of the ops with a destination, a quarter of
    them wrong; half of the loads' rename one of the last four stores."""
    rng = random.Random(seed)
    table, stores = {}, []
    for seq, uop in enumerate(trace):
        if uop.op == opcodes.STORE:
            stores.append(seq)
        if uop.dest is None or rng.random() < 0.6:
            continue
        value = uop.value if rng.random() < 0.75 else uop.value ^ 1
        store_seq = rng.choice(stores[-4:]) if uop.op == opcodes.LOAD \
            and stores and rng.random() < 0.5 else None
        table[seq] = Prediction(value, store_seq)
    return table


def abundant_config(rob, **fields):
    """``rob`` units of every class and ``rob`` issue slots."""
    ports = {op: PortGroup(rob, group.latency, group.pipelined)
             for op, group in CoreConfig.skylake().ports.items()}
    return CoreConfig("oracle", issue_width=rob, rob_size=rob,
                      ports=ports, **fields)


@st.composite
def configs(draw):
    rob = draw(st.integers(8, 32))
    queue, width = st.integers(1, rob), st.integers(1, 4)
    penalty = st.integers(0, 24)
    return abundant_config(
        rob, fetch_width=draw(width), retire_width=draw(width),
        lq_size=draw(queue), sq_size=draw(queue), iq_size=draw(queue),
        vp_penalty=draw(penalty), mem_violation_penalty=draw(penalty),
        forward_latency=draw(st.integers(1, 8)),
        frontend=FrontEndConfig(mispredict_penalty=draw(penalty)))


def below_store_pruning(trace, config):
    """``trace`` cut before its (4 x sq_size + 1)-th store: past that
    the engine forgets in-flight stores (DESIGN.md §2, and the strict
    xfail test_store_records_outlive_pruning)."""
    stores = [seq for seq, uop in enumerate(trace)
              if uop.op == opcodes.STORE]
    return trace[:stores[4 * config.sq_size]] \
        if len(stores) > 4 * config.sq_size else trace


def run_both(trace, config, latency_of, table):
    """(oracle output, the scalar loop's, its result, its predictor)."""
    front = FrontEnd(config.frontend)
    bubbles = [front.fetch_bubbles(uop.pc) for uop in trace]
    mispredicts = [uop.op in opcodes.CONTROL and not front.process_control(
        uop.pc, uop.op, uop.taken, uop.target) for uop in trace]
    expected = run_oracle(trace, config, latency=latency_of,
                          bubbles=bubbles, mispredicts=mispredicts,
                          predictions=table)
    predictor = TablePredictor(table)
    engine = Engine(config, predictor, collect_timing=True,
                    backend="scalar")
    engine.memory = FixedLatencyMemory(latency_of)
    result = engine.run(trace)
    got = dict(result.timing, cycles=result.cycles, stalls_retirement=[
        predictor.stalls[seq] for seq in range(len(trace))])
    return expected, got, result, predictor


def check_against_oracle(trace, config, latency_of, table):
    expected, got, result, predictor = run_both(trace, config,
                                                latency_of, table)
    for key in (*TIMESTAMPS, "stalls_retirement"):
        for seq, (have, want) in enumerate(zip(got[key], expected[key])):
            assert have == want, (key, seq, have, want)
    assert got["cycles"] == expected["cycles"]
    return result, predictor


@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(config=configs(), shape=st.sampled_from(sorted(TRACE_SHAPES)),
       seed=st.integers(0, 1 << 16), length=st.integers(1, 300))
def test_scalar_loop_matches_oracle(config, shape, seed, length):
    """Random traces of every shape, without predictions and then with
    a table of register and memory-renaming predictions."""
    trace = below_store_pruning(
        random_trace(seed, length, **TRACE_SHAPES[shape]), config)
    check_against_oracle(trace, config, block_latency(seed), {})
    check_against_oracle(trace, config, block_latency(seed),
                         prediction_table(trace, seed))


def test_oracle_runs_cover_every_flush_and_forwarding():
    """A fixed case has branch, value and memory-ordering flushes,
    store-to-load forwarding, and both kinds of prediction."""
    config = abundant_config(16, fetch_width=4, retire_width=4,
                             lq_size=6, sq_size=6, iq_size=12)
    trace = below_store_pruning(
        random_trace(5, 300, **TRACE_SHAPES["aliasing"]), config)
    result, predictor = check_against_oracle(
        trace, config, block_latency(5), prediction_table(trace, 5))
    assert min(result.branch_mispredicts, result.vp_flushes,
               result.mem_violations, predictor.forwards,
               result.mr_predictions, result.register_predictions) > 0


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the engine keeps one busy-until time per unit and "
    "issue slot in min-heaps, so independent ALU ops wait behind ALU ops "
    "reserved for long misses instead of issuing into free slots"))
@pytest.mark.parametrize("misses", [4, 12])
def test_independent_ops_issue_into_free_slots(misses):
    """The oracle's first catch.  On Skylake, ``misses`` DRAM loads,
    each followed by a dependent ALU op, then 40 independent ALU ops:
    with ALU units and issue slots free, those issue long before the
    misses return."""
    trace = []
    for k in range(misses):
        trace += [load(0x400000 + 8 * k, dest=k % 8,
                       addr=0x100000 + 4096 * k),
                  alu(0x400004 + 8 * k, dest=8 + k % 4, srcs=(k % 8,))]
    trace += [alu(0x400000 + 8 * misses + 4 * k, dest=12 + k % 4)
              for k in range(40)]
    expected, got, _result, _predictor = run_both(
        trace, CoreConfig.skylake(), lambda addr: max(LATENCIES), {})
    independent = slice(2 * misses, None)
    assert got["issue"][independent] == expected["issue"][independent]


@pytest.mark.xfail(strict=True, reason=(
    "DESIGN.md §2: once the engine holds more than 4 x sq_size store "
    "records it drops every record that retires before the newest "
    "store, in-flight stores included, so a later load no longer "
    "forwards from them"))
def test_store_records_outlive_pruning():
    """Nine stores on a 2-entry SQ make the engine prune its store
    records.  The eighth waits behind a DRAM miss to retire, so it is
    in flight when the last load reads its block: the load forwards."""
    trace = [store(0x400000 + 4 * k, addr=0x2000 + 64 * k, value=k)
             for k in range(7)]
    trace += [load(0x40001c, dest=1, addr=0x9000),
              store(0x400020, addr=0x3000, value=7),
              store(0x400024, addr=0x3100, value=8),
              load(0x400028, dest=2, addr=0x3000, value=7)]
    config = abundant_config(16, fetch_width=4, retire_width=1,
                             lq_size=4, sq_size=2, iq_size=16)
    check_against_oracle(trace, config, lambda addr: max(LATENCIES)
                         if addr in (0x9000, 0x3000) else 5, {})
