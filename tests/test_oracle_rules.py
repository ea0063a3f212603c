"""The cycle-stepped oracle (tests/oracle.py) against its own rules.

test_oracle.py checks the scalar loop against the oracle, so a rule
both get wrong passes there.  Here the oracle's timestamps are checked
against the rules its docstring states, on a tight core where ops do
wait for ROB, queue, unit and issue-slot space: in-order allocation
and retirement within their widths, the stage order, the capacities,
oldest-ready-first issue, unpipelined units, flush windows, and the
squash and replay after a memory-ordering violation.
"""

from __future__ import annotations

import pytest

from repro.frontend.fetch import FrontEnd, FrontEndConfig
from repro.isa import alu, load, opcodes, store
from repro.isa.instruction import MicroOp
from repro.pipeline.config import CoreConfig, PortGroup
from tests.helpers import TRACE_SHAPES, random_trace
from tests.oracle import PORT_CLASS, run_oracle
from tests.test_oracle import LATENCIES, block_latency, prediction_table

SEED = 7


def tight_config(**fields):
    """A small core: 16-entry ROB, 4-entry IQ and LQ, 2-entry SQ, 1-2
    units per class, an unpipelined DIV, 3-wide issue and fetch, 2-wide
    retire."""
    ports = {op: PortGroup(2 if op in (opcodes.ALU, opcodes.NOP) else 1,
                           group.latency, group.pipelined)
             for op, group in CoreConfig.skylake().ports.items()}
    ports[opcodes.DIV] = PortGroup(1, 6, pipelined=False)
    base = dict(fetch_width=3, retire_width=2, issue_width=3, rob_size=16,
                lq_size=4, sq_size=2, iq_size=4, vp_penalty=7,
                mem_violation_penalty=5, forward_latency=3,
                frontend=FrontEndConfig(mispredict_penalty=9))
    base.update(fields)
    return CoreConfig("tight", ports=ports, **base)


def with_long_ops(trace):
    """Every 9th ALU op becomes a DIV and every 7th a MUL."""
    out = []
    for seq, uop in enumerate(trace):
        if uop.op == opcodes.ALU and seq % 9 == 0:
            uop = MicroOp(uop.pc, opcodes.DIV, dest=uop.dest,
                          srcs=uop.srcs, value=uop.value)
        elif uop.op == opcodes.ALU and seq % 7 == 0:
            uop = MicroOp(uop.pc, opcodes.MUL, dest=uop.dest,
                          srcs=uop.srcs, value=uop.value)
        out.append(uop)
    return out


def oracle(trace, config, latency_of, table):
    """The oracle's output and its front-end inputs for ``trace``."""
    front = FrontEnd(config.frontend)
    bubbles = [front.fetch_bubbles(uop.pc) for uop in trace]
    mispredicts = [uop.op in opcodes.CONTROL and not front.process_control(
        uop.pc, uop.op, uop.taken, uop.target) for uop in trace]
    out = run_oracle(trace, config, latency=latency_of, bubbles=bubbles,
                     mispredicts=mispredicts, predictions=table)
    return out, mispredicts


@pytest.fixture(scope="module", params=sorted(TRACE_SHAPES))
def run(request):
    """(trace, config, prediction table, mispredict flags, output) for
    a 300-op trace of one shape on the tight core."""
    trace = with_long_ops(random_trace(SEED, 300,
                                       **TRACE_SHAPES[request.param]))
    config = tight_config()
    table = prediction_table(trace, SEED)
    out, mispredicts = oracle(trace, config, block_latency(SEED), table)
    return trace, config, table, mispredicts, out


def per_cycle(times):
    counts = {}
    for t in times:
        counts[t] = counts.get(t, 0) + 1
    return counts


def max_live(intervals):
    """Most half-open ``[start, end)`` intervals live in one cycle."""
    events = sorted([(start, 1) for start, _ in intervals]
                    + [(end, -1) for _, end in intervals])
    live = most = 0
    for _, step in events:
        live += step
        most = max(most, live)
    return most


def test_stages_keep_their_order(run):
    """alloc < ready <= issue < complete < retire, and an op is ready
    no earlier than the completion of each producer it did not get a
    correct prediction for."""
    trace, _config, table, _mispredicts, out = run
    writer = {}
    for seq, uop in enumerate(trace):
        assert out["alloc"][seq] < out["ready"][seq] <= out["issue"][seq] \
            < out["complete"][seq] < out["retire"][seq], seq
        for src in uop.srcs:
            producer = writer.get(src)
            if producer is None:
                continue
            predicted = table.get(producer)
            if predicted is None or predicted.value != trace[producer].value:
                assert out["ready"][seq] >= out["complete"][producer], seq
        if uop.dest is not None:
            writer[uop.dest] = seq


def test_allocation_and_retirement_are_in_order_within_width(run):
    _trace, config, _table, _mispredicts, out = run
    for key, width in (("alloc", config.fetch_width),
                       ("retire", config.retire_width)):
        assert out[key] == sorted(out[key]), key
        assert max(per_cycle(out[key]).values()) <= width, key
    assert out["cycles"] == out["retire"][-1]


def test_occupancy_never_exceeds_capacity(run):
    """ROB, LQ and SQ entries live from alloc to retire, IQ entries
    from alloc to issue; the tight core fills its IQ, LQ and SQ."""
    trace, config, _table, _mispredicts, out = run
    alloc, issue, retire = out["alloc"], out["issue"], out["retire"]
    everyone = range(len(trace))
    loads = [s for s in everyone if trace[s].op == opcodes.LOAD]
    stores = [s for s in everyone if trace[s].op == opcodes.STORE]
    for label, seqs, leave, size in (
            ("rob", everyone, retire, config.rob_size),
            ("iq", everyone, issue, config.iq_size),
            ("lq", loads, retire, config.lq_size),
            ("sq", stores, retire, config.sq_size)):
        live = max_live([(alloc[s], leave[s]) for s in seqs])
        assert live <= size, label
        assert live == size or label == "rob", label


def test_issue_respects_width_and_units(run):
    """At most ``issue_width`` issues a cycle, and never more ops of a
    port class in flight on its units than it has units; a pipelined
    unit is held one cycle, an unpipelined one ``latency`` cycles."""
    trace, config, _table, _mispredicts, out = run
    issue = out["issue"]
    assert max(per_cycle(issue).values()) <= config.issue_width
    holds = {}
    for seq, uop in enumerate(trace):
        group = config.ports[uop.op]
        hold = 1 if group.pipelined else group.latency
        holds.setdefault(PORT_CLASS[uop.op], []).append(
            (issue[seq], issue[seq] + hold))
    for port, intervals in holds.items():
        assert max_live(intervals) <= config.ports[port].count, port


def test_oldest_ready_op_issues_first(run):
    """Of two ops on one port class, the older one, if it was ready by
    the time the younger one issued, issued no later."""
    trace, _config, _table, _mispredicts, out = run
    ready, issue = out["ready"], out["issue"]
    by_port = {}
    for seq, uop in enumerate(trace):
        by_port.setdefault(PORT_CLASS[uop.op], []).append(seq)
    for seqs in by_port.values():
        for k, older in enumerate(seqs):
            for younger in seqs[k + 1:]:
                if ready[older] <= issue[younger]:
                    assert issue[older] <= issue[younger], (older, younger)


def test_no_op_allocates_inside_a_flush_window(run):
    """After a mispredicted branch or a wrong value prediction, nothing
    younger allocates before that op's ``complete + penalty``."""
    trace, config, table, mispredicts, out = run
    flushes = 0
    for seq, uop in enumerate(trace[:-1]):
        penalties = []
        if mispredicts[seq]:
            penalties.append(config.frontend.mispredict_penalty)
        if seq in table and table[seq].value != uop.value:
            penalties.append(config.vp_penalty)
        if penalties:
            flushes += 1
            assert min(out["alloc"][seq + 1:]) \
                >= out["complete"][seq] + max(penalties), seq
    assert flushes > 0


def test_unpipelined_unit_is_held_for_its_latency():
    """Independent DIVs on the one unpipelined DIV unit issue
    ``latency`` cycles apart; MULs on a pipelined unit, a cycle apart."""
    divs = [MicroOp(0x400000 + 4 * k, opcodes.DIV, dest=k) for k in range(3)]
    muls = [MicroOp(0x400000 + 4 * k, opcodes.MUL, dest=k) for k in range(3)]
    config = tight_config()
    div_out, _ = oracle(divs, config, lambda addr: 5, {})
    mul_out, _ = oracle(muls, config, lambda addr: 5, {})
    assert [t - div_out["issue"][0] for t in div_out["issue"]] \
        == [0, 6, 12]
    assert [t - mul_out["issue"][0] for t in mul_out["issue"]] == [0, 1, 2]


def violation_trace(repeats):
    """A store whose data waits on a DRAM miss, then a load of its block
    issued before the store completes, then a consumer; ``repeats``
    copies with the same PCs."""
    trace = []
    for k in range(repeats):
        trace += [load(0x400000, dest=1, addr=0x9000 + 64 * k),
                  store(0x400004, addr=0x3000, srcs=(1,), value=k),
                  load(0x400008, dest=2, addr=0x3000, value=k),
                  alu(0x40000c, dest=3, srcs=(2,))]
    return trace


def violation_latency(addr):
    return max(LATENCIES) if addr != 0x3000 else 5


def test_violation_squashes_and_replays_younger_ops():
    """The load passes the store, so everything younger allocates again
    from the load's ``complete + mem_violation_penalty``."""
    config = tight_config(fetch_width=4)
    out, _ = oracle(violation_trace(1), config, violation_latency, {})
    assert out["issue"][2] < out["complete"][1]
    assert out["complete"][2] == out["issue"][2] + 5
    assert out["alloc"][3] == \
        out["complete"][2] + config.mem_violation_penalty


def test_store_sets_serialize_the_load_after_a_violation():
    """The second time round the store-sets table knows the pair: the
    load waits for the store and forwards from it, with no flush."""
    config = tight_config(fetch_width=4)
    out, _ = oracle(violation_trace(2), config, violation_latency, {})
    assert out["ready"][6] >= out["complete"][5]
    assert out["complete"][6] == out["issue"][6] + config.forward_latency
    assert out["alloc"][7] < out["complete"][6]


def test_empty_trace_takes_no_cycles():
    out, _ = oracle([], tight_config(), lambda addr: 5, {})
    assert out["cycles"] == 0 and out["retire"] == []
