"""Vectorized structure-of-arrays timing loop (the ``vector`` backend).

Third implementation of the engine's per-op loop (docs/VECTOR.md).  The
scalar loops interleave *state-machine* work (branch predictors,
caches, prefetchers — one Python call per op) with the *timestamp
recurrence* (alloc/ready/issue/complete/retire).  The timing-coupling
analysis behind this module is that almost all of the state-machine
work depends only on the program-order op stream, never on computed
timestamps:

* front-end fetch (I-cache + line tracking) — program-order only;
* control prediction (TAGE/ITTAGE/BTB/history) — program-order only;
* the cache hierarchy front half (:meth:`MemoryHierarchy.access_front`)
  — program-order only; exactly one piece, the DRAM bank queue, reads
  the issue cycle;
* store→load forwarding — timestamp-coupled (a load's behaviour
  depends on the forwarding store's *complete* time).

So the vector loop consumes whole structure-of-arrays windows
(:meth:`~repro.trace.source.TraceSource.soa_windows`): it runs the
three program-order machines as *pre-passes* over each window (batched,
no per-op attribute chains), then sweeps a stripped-down timestamp
recurrence over plain list columns, deferring only the DRAM tail calls
to their exact issue cycles.  Windows where a load may alias an
in-flight store (the one timestamp coupling that cannot be hoisted) run
through an embedded scalar fallback loop instead; runs using predictor
hooks or event collection delegate entirely to
:meth:`Engine._time_trace`.  Either way the result is **bit-identical**
to the scalar loop — the two-loop identity contract asserted by
``tests/test_perf_neutrality.py`` and policed by reprolint RL003.

Fallback rules (docs/VECTOR.md):

1. **Whole-run delegation** — the predictor overrides any engine hook
   (``predict`` / ``train_execute`` / ``epoch_tick`` /
   ``on_forwarding``), or the run collects pipeline events.  Hooks see
   per-op context (branch history, retirement stalls) that only a scalar
   sweep maintains.
2. **Per-window scalar fallback** — some load's 8-byte block matches an
   in-window store or a carried in-flight store
   (:meth:`SoaWindow.aliases_stores`), so forwarding, memory-ordering
   violations and store-set training may fire.  The window runs in the
   embedded scalar loop; vector resumes at the next window.

The driver publishes its coverage through the ``engine.*`` telemetry
group (vector vs fallback window/op counts, delegation flag).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.isa import opcodes
from repro.pipeline.engine import (_ADDR_ALIGN, _GROUP_TAB, _IS_CONTROL_TAB,
                                   _NO_CYCLE_LIMIT)
from repro.pipeline.results import SimResult
from repro.pipeline.vp_interface import ValuePredictor
from repro.telemetry.stalls import (
    BRANCH_FLUSH,
    FRONTEND_STARVED,
    HEAD_WAIT_EXEC,
    HEAD_WAIT_LOAD,
    MEM_FLUSH,
    RETIRING,
)
from repro.trace.source import TraceSource

if TYPE_CHECKING:  # pragma: no cover - typing only (circular at runtime)
    from repro.pipeline.engine import Engine


def time_trace_vector(engine: "Engine", trace: TraceSource, warmup: int,
                      result: SimResult, gap_hist) -> None:
    """Time ``trace`` with the vector backend, bit-identically to
    :meth:`Engine._time_trace` (see the module docstring for the
    decomposition argument and the fallback rules)."""
    predictor = engine.predictor
    pcls = type(predictor)
    # Rule 1: any overridden predictor hook (or event collection) needs
    # the per-op scalar sweep — delegate the whole run.
    if (pcls.predict is not ValuePredictor.predict
            or pcls.train_execute is not ValuePredictor.train_execute
            or pcls.epoch_tick is not ValuePredictor.epoch_tick
            or pcls.on_forwarding is not ValuePredictor.on_forwarding
            or engine.collect_events):
        engine._vec_delegated = True
        engine._time_trace(trace, warmup, result, gap_hist)
        return

    cfg = engine.config
    frontend = engine.frontend
    memory = engine.memory
    n = len(trace)

    cycle_base = 0
    level_base = None  # snapped when crossing the warmup edge

    reg_ready = [0] * 16
    reg_writer_load = [False] * 16
    engine._reg_ready = reg_ready

    retire_times: list = []
    engine._retire_times = retire_times
    load_retires: list = []
    store_retires: list = []
    iq_heap: list = []

    engine._store_by_addr = {}
    engine._store_records = {}
    store_by_addr = engine._store_by_addr
    store_records = engine._store_records

    # Inlined in-order bandwidth machines: at most ``width`` events per
    # cycle, event times never decrease.
    alloc_width = cfg.fetch_width
    alloc_cycle = -1
    alloc_count = 0
    retire_bw = cfg.retire_width
    retire_cycle = -1
    retire_count = 0
    cycle_limit = engine.max_cycles if engine.max_cycles is not None \
        else _NO_CYCLE_LIMIT

    port_heaps = {key: list(h) for key, h in engine._port_heaps.items()}
    for heap in port_heaps.values():
        heapq.heapify(heap)
    heap_tab = [port_heaps.get(group) for group in
                range(max(port_heaps, default=0) + 1)]
    issue_bw = list(engine._issue_bw)
    heapq.heapify(issue_bw)

    redirect_t = 0
    redirect_cause = FRONTEND_STARVED  # placeholder until a flush
    prev_retire = 0
    num_loads = 0
    num_stores = 0

    collect_stalls = engine.collect_stalls
    main_buckets = result.stall_cycles
    warmup_buckets = result.warmup_stall_cycles
    main_retiring = 0
    warm_retiring = 0
    observe_gap = gap_hist.observe

    timing = None
    if engine.collect_timing:
        timing = {k: [0] * n for k in
                  ("alloc", "ready", "issue", "complete", "retire")}
        timing["mispredict"] = [False] * n
        result.timing = timing

    # Headline counters kept in locals, written back after the loop.
    # Prediction counters stay zero: a run that could predict anything
    # was delegated above.
    c_loads = 0
    c_stores = 0
    c_branches = 0
    c_branch_miss = 0
    c_mem_viol = 0

    rob_size = cfg.rob_size
    iq_size = cfg.iq_size
    lq_size = cfg.lq_size
    sq_size = cfg.sq_size
    fwd_latency = cfg.forward_latency
    # Unreachable on this backend (a predictor able to mispredict was
    # delegated above); bound anyway so the config surface read here
    # stays equal to the scalar loops' (reprolint RL003).
    vp_penalty = cfg.vp_penalty  # noqa: F841
    mem_violation_penalty = cfg.mem_violation_penalty
    mispredict_penalty = frontend.mispredict_penalty
    store_prune_limit = 4 * sq_size

    # Bound methods/constants hoisted out of the loops.
    group_tab = _GROUP_TAB
    is_control_tab = _IS_CONTROL_TAB
    push_tab = engine._push_tab
    lat_tab = engine._lat_tab
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    memory_access = memory.access
    access_front = memory.access_front
    dram_access = memory.dram.access
    llc_latency = memory.config.llc_latency
    process_control = frontend.process_control
    fetch_bubbles = frontend.fetch_bubbles
    load_dependence = engine.store_sets.load_dependence
    record_violation = engine.store_sets.record_violation
    store_dispatched = engine.store_sets.store_dispatched
    prune_stores = engine._prune_stores
    abort_nonterminating = engine._abort_nonterminating
    icache_line = frontend.config.icache_line
    last_fetch_line = frontend._last_fetch_line
    LOAD_OP = opcodes.LOAD
    STORE_OP = opcodes.STORE
    ADDR_ALIGN = _ADDR_ALIGN

    vec_windows = 0
    vec_ops = 0
    fb_windows = 0
    fb_ops = 0
    base = 0  # global index of the current window's first op

    for win in trace.soa_windows():
        wn = win.n
        if not win.aliases_stores(store_by_addr):
            # ---------------- vector window ----------------
            win.load_columns()  # deferred columns, paid only on this path
            vec_windows += 1
            vec_ops += wn
            pcs = win.pcs
            ops_col = win.ops
            dests = win.dests
            srcs_col = win.srcs
            values = win.values
            addrs = win.addrs
            takens = win.takens
            targets = win.targets

            # Pre-pass 1: fetch bubbles at I-cache line changes (the
            # only points the scalar loops consult the front end).
            bub_idx: list = []
            bub_val: list = []
            for i in win.line_change_indices(icache_line, last_fetch_line):
                b = fetch_bubbles(pcs[i])
                if b:
                    bub_idx.append(i)
                    bub_val.append(b)
            last_fetch_line = pcs[wn - 1] // icache_line

            # Pre-pass 2: control prediction in program order.
            ctrl_idx = win.control_indices()
            ctrl_ok = [process_control(pcs[i], ops_col[i], takens[i],
                                       targets[i]) for i in ctrl_idx]

            # Pre-pass 3: the cache front half in program order.  A -1
            # latency marks a full miss whose DRAM tail is owed at the
            # op's exact issue (load) or complete (store) cycle.  The
            # post-warmup level snapshot is taken mid-pass so mixed
            # windows stay exact.
            mem_lat: list = []
            for i in win.memory_indices():
                if level_base is None and base + i >= warmup:
                    level_base = dict(memory.level_counts)
                front = access_front(pcs[i], addrs[i],
                                     ops_col[i] == STORE_OP)
                mem_lat.append(-1 if front is None else front[0])

            # Timestamp recurrence over the columns.
            bub_ptr = 0
            nbub = len(bub_idx)
            ctrl_ptr = 0
            nctrl = len(ctrl_idx)
            mem_ptr = 0
            for i in range(wn):
                gidx = base + i
                op = ops_col[i]
                pc = pcs[i]
                is_load = op == LOAD_OP
                is_store = op == STORE_OP
                collecting = gidx >= warmup
                if gidx == warmup:
                    cycle_base = prev_retire

                # ---------------- front end / allocate ----------------
                earliest = redirect_t
                alloc_cause = redirect_cause
                if bub_ptr < nbub and bub_idx[bub_ptr] == i:
                    bubbles = bub_val[bub_ptr]
                    bub_ptr += 1
                    base_t = earliest if earliest > alloc_cycle \
                        else alloc_cycle
                    earliest = base_t + bubbles
                    alloc_cause = FRONTEND_STARVED
                # Window and queue bounds are older ops' retire or issue
                # times, at most prev_retire: they never own a charged cycle.
                if gidx >= rob_size:
                    t = retire_times[gidx - rob_size]
                    if t > earliest:
                        earliest = t
                if len(iq_heap) >= iq_size and iq_heap[0] > earliest:
                    earliest = iq_heap[0]
                if is_load and num_loads >= lq_size:
                    t = load_retires[num_loads - lq_size]
                    if t > earliest:
                        earliest = t
                if is_store and num_stores >= sq_size:
                    t = store_retires[num_stores - sq_size]
                    if t > earliest:
                        earliest = t
                # Inlined alloc-width machine.
                if earliest > alloc_cycle:
                    alloc_cycle = earliest
                    alloc_count = 1
                elif alloc_count >= alloc_width:
                    alloc_cycle += 1
                    alloc_count = 1
                else:
                    alloc_count += 1
                alloc_t = alloc_cycle

                # No forwarding candidates exist in a vector window
                # (the eligibility probe ran before any mutation), so
                # the fwd/violation paths vanish entirely.
                if is_load:
                    num_loads += 1
                    if collecting:
                        c_loads += 1

                # ---------------- dataflow readiness ----------------
                ready = alloc_t + 1
                dep_load = False
                for src in srcs_col[i]:
                    t = reg_ready[src]
                    if t > ready:
                        ready = t
                        dep_load = reg_writer_load[src]

                # ---------------- issue ----------------
                heap = heap_tab[group_tab[op]]
                port_free = heappop(heap)
                bw_free = heappop(issue_bw)
                issue_t = ready
                if port_free > issue_t:
                    issue_t = port_free
                if bw_free > issue_t:
                    issue_t = bw_free
                heappush(heap, issue_t + push_tab[op])
                heappush(issue_bw, issue_t + 1)

                # ---------------- execute / complete ----------------
                if is_load:
                    latency = mem_lat[mem_ptr]
                    mem_ptr += 1
                    if latency < 0:
                        latency = llc_latency + dram_access(addrs[i],
                                                            issue_t)
                    complete_t = issue_t + latency
                elif is_store:
                    complete_t = issue_t + 1
                    if mem_lat[mem_ptr] < 0:
                        dram_access(addrs[i], complete_t)
                    mem_ptr += 1
                else:
                    complete_t = issue_t + lat_tab[op]

                # ---------------- retire (inlined width machine) ------
                earliest_r = complete_t + 1
                if prev_retire > earliest_r:
                    earliest_r = prev_retire
                if earliest_r > retire_cycle:
                    retire_cycle = earliest_r
                    retire_count = 1
                elif retire_count >= retire_bw:
                    retire_cycle += 1
                    retire_count = 1
                else:
                    retire_count += 1
                retire_t = retire_cycle
                if retire_t > cycle_limit:
                    abort_nonterminating(gidx, n, pc, retire_t)

                # ---------------- cycle accounting ----------------
                gap = retire_t - prev_retire
                if gap > 0 and collect_stalls:
                    if collecting:
                        main_retiring += 1
                        buckets = main_buckets
                    else:
                        warm_retiring += 1
                        buckets = warmup_buckets
                    if gap > 1:
                        hi = retire_t - 1
                        pos = prev_retire
                        while True:
                            if earliest > pos:
                                top = earliest if earliest < hi else hi
                                buckets[alloc_cause] += top - pos
                                pos = top
                                if pos == hi:
                                    break
                            if alloc_t > pos:
                                top = alloc_t if alloc_t < hi else hi
                                buckets[FRONTEND_STARVED] += top - pos
                                pos = top
                                if pos == hi:
                                    break
                            if ready > pos:
                                top = ready if ready < hi else hi
                                buckets[HEAD_WAIT_LOAD if dep_load
                                        else HEAD_WAIT_EXEC] += top - pos
                                pos = top
                                if pos == hi:
                                    break
                            buckets[HEAD_WAIT_LOAD if is_load
                                    else HEAD_WAIT_EXEC] += hi - pos
                            break
                        if collecting:
                            observe_gap(gap - 1)
                prev_retire = retire_t

                # ---------------- control flow ----------------
                branch_misp = False
                if ctrl_ptr < nctrl and ctrl_idx[ctrl_ptr] == i:
                    correct_cf = ctrl_ok[ctrl_ptr]
                    ctrl_ptr += 1
                    if collecting:
                        c_branches += 1
                    if not correct_cf:
                        if collecting:
                            c_branch_miss += 1
                        branch_misp = True
                        t = complete_t + mispredict_penalty
                        if t > redirect_t:
                            redirect_t = t
                            redirect_cause = BRANCH_FLUSH

                # ---------------- architectural updates ----------------
                dest = dests[i]
                if dest >= 0:
                    reg_ready[dest] = complete_t
                    reg_writer_load[dest] = is_load

                if is_store:
                    num_stores += 1
                    if collecting:
                        c_stores += 1
                    store_dispatched(pc, gidx)
                    addr8 = addrs[i] & ADDR_ALIGN
                    value = values[i]
                    store_by_addr[addr8] = (gidx, pc, complete_t,
                                            retire_t, value)
                    store_records[gidx] = (pc, addr8, complete_t,
                                           retire_t, value)
                    store_retires.append(retire_t)
                    if len(store_records) > store_prune_limit:
                        prune_stores(retire_t)
                if is_load:
                    load_retires.append(retire_t)

                retire_times.append(retire_t)
                if len(iq_heap) < iq_size:
                    heappush(iq_heap, issue_t)
                elif issue_t > iq_heap[0]:
                    heapreplace(iq_heap, issue_t)

                if timing is not None:
                    timing["alloc"][gidx] = alloc_t
                    timing["ready"][gidx] = ready
                    timing["issue"][gidx] = issue_t
                    timing["complete"][gidx] = complete_t
                    timing["retire"][gidx] = retire_t
                    timing["mispredict"][gidx] = branch_misp
        else:
            # ---------------- scalar fallback window ----------------
            # Rule 2: a load may alias an in-flight store, so this
            # window runs the full per-op loop — the hook-free
            # specialization of Engine._time_trace, sharing all
            # carried state with the vector windows around it.
            fb_windows += 1
            fb_ops += wn
            for i, uop in enumerate(win.to_microops()):
                gidx = base + i
                op = uop.op
                pc = uop.pc
                is_load = op == LOAD_OP
                is_store = op == STORE_OP
                collecting = gidx >= warmup
                if gidx == warmup:
                    cycle_base = prev_retire
                    level_base = dict(memory.level_counts)

                # ---------------- front end / allocate ----------------
                earliest = redirect_t
                alloc_cause = redirect_cause
                line = pc // icache_line
                if line != last_fetch_line:
                    last_fetch_line = line
                    bubbles = fetch_bubbles(pc)
                    if bubbles:
                        base_t = earliest if earliest > alloc_cycle \
                            else alloc_cycle
                        earliest = base_t + bubbles
                        alloc_cause = FRONTEND_STARVED
                # Window and queue bounds are older ops' retire or issue
                # times, at most prev_retire: they never own a charged cycle.
                if gidx >= rob_size:
                    t = retire_times[gidx - rob_size]
                    if t > earliest:
                        earliest = t
                if len(iq_heap) >= iq_size and iq_heap[0] > earliest:
                    earliest = iq_heap[0]
                if is_load and num_loads >= lq_size:
                    t = load_retires[num_loads - lq_size]
                    if t > earliest:
                        earliest = t
                if is_store and num_stores >= sq_size:
                    t = store_retires[num_stores - sq_size]
                    if t > earliest:
                        earliest = t
                # Inlined alloc-width machine.
                if earliest > alloc_cycle:
                    alloc_cycle = earliest
                    alloc_count = 1
                elif alloc_count >= alloc_width:
                    alloc_cycle += 1
                    alloc_count = 1
                else:
                    alloc_count += 1
                alloc_t = alloc_cycle

                # ---------------- forwarding lookup ----------------
                fwd = None
                if is_load:
                    num_loads += 1
                    if collecting:
                        c_loads += 1
                    entry = store_by_addr.get(uop.addr & ADDR_ALIGN)
                    if entry is not None and entry[3] >= alloc_t:
                        fwd = entry  # (seq, pc, complete, retire, value)

                # ---------------- dataflow readiness ----------------
                ready = alloc_t + 1
                dep_load = False
                for src in uop.srcs:
                    t = reg_ready[src]
                    if t > ready:
                        ready = t
                        dep_load = reg_writer_load[src]

                violation = False
                if fwd is not None:
                    store_complete = fwd[2]
                    dep = load_dependence(pc)
                    if dep is not None:
                        if store_complete > ready:
                            ready = store_complete
                            dep_load = False
                    elif store_complete > ready:
                        violation = True

                # ---------------- issue ----------------
                heap = heap_tab[group_tab[op]]
                port_free = heappop(heap)
                bw_free = heappop(issue_bw)
                issue_t = ready
                if port_free > issue_t:
                    issue_t = port_free
                if bw_free > issue_t:
                    issue_t = bw_free
                heappush(heap, issue_t + push_tab[op])
                heappush(issue_bw, issue_t + 1)

                # ---------------- execute / complete ----------------
                if is_load:
                    if fwd is not None and not violation:
                        store_complete = fwd[2]
                        base_t = issue_t if issue_t > store_complete \
                            else store_complete
                        complete_t = base_t + fwd_latency
                    else:
                        latency, _level = memory_access(pc, uop.addr,
                                                        issue_t)
                        complete_t = issue_t + latency
                        if violation:
                            if collecting:
                                c_mem_viol += 1
                            record_violation(pc, fwd[1])
                            t = complete_t + mem_violation_penalty
                            if t > redirect_t:
                                redirect_t = t
                                redirect_cause = MEM_FLUSH
                elif is_store:
                    complete_t = issue_t + 1
                    memory_access(pc, uop.addr, complete_t, is_store=True)
                else:
                    complete_t = issue_t + lat_tab[op]

                # ---------------- retire (inlined width machine) ------
                earliest_r = complete_t + 1
                if prev_retire > earliest_r:
                    earliest_r = prev_retire
                if earliest_r > retire_cycle:
                    retire_cycle = earliest_r
                    retire_count = 1
                elif retire_count >= retire_bw:
                    retire_cycle += 1
                    retire_count = 1
                else:
                    retire_count += 1
                retire_t = retire_cycle
                if retire_t > cycle_limit:
                    abort_nonterminating(gidx, n, pc, retire_t)

                # ---------------- cycle accounting ----------------
                gap = retire_t - prev_retire
                if gap > 0 and collect_stalls:
                    if collecting:
                        main_retiring += 1
                        buckets = main_buckets
                    else:
                        warm_retiring += 1
                        buckets = warmup_buckets
                    if gap > 1:
                        hi = retire_t - 1
                        pos = prev_retire
                        while True:
                            if earliest > pos:
                                top = earliest if earliest < hi else hi
                                buckets[alloc_cause] += top - pos
                                pos = top
                                if pos == hi:
                                    break
                            if alloc_t > pos:
                                top = alloc_t if alloc_t < hi else hi
                                buckets[FRONTEND_STARVED] += top - pos
                                pos = top
                                if pos == hi:
                                    break
                            if ready > pos:
                                top = ready if ready < hi else hi
                                buckets[HEAD_WAIT_LOAD if dep_load
                                        else HEAD_WAIT_EXEC] += top - pos
                                pos = top
                                if pos == hi:
                                    break
                            buckets[HEAD_WAIT_LOAD if is_load
                                    else HEAD_WAIT_EXEC] += hi - pos
                            break
                        if collecting:
                            observe_gap(gap - 1)
                prev_retire = retire_t

                # ---------------- control flow ----------------
                branch_misp = False
                if is_control_tab[op]:
                    if collecting:
                        c_branches += 1
                    correct_cf = process_control(pc, op, uop.taken,
                                                 uop.target)
                    if not correct_cf:
                        if collecting:
                            c_branch_miss += 1
                        branch_misp = True
                        t = complete_t + mispredict_penalty
                        if t > redirect_t:
                            redirect_t = t
                            redirect_cause = BRANCH_FLUSH

                # ---------------- architectural updates ----------------
                dest = uop.dest
                if dest is not None:
                    reg_ready[dest] = complete_t
                    reg_writer_load[dest] = is_load

                if is_store:
                    num_stores += 1
                    if collecting:
                        c_stores += 1
                    store_dispatched(pc, gidx)
                    addr8 = uop.addr & ADDR_ALIGN
                    value = uop.value
                    store_by_addr[addr8] = (gidx, pc, complete_t,
                                            retire_t, value)
                    store_records[gidx] = (pc, addr8, complete_t,
                                           retire_t, value)
                    store_retires.append(retire_t)
                    if len(store_records) > store_prune_limit:
                        prune_stores(retire_t)
                if is_load:
                    load_retires.append(retire_t)

                retire_times.append(retire_t)
                if len(iq_heap) < iq_size:
                    heappush(iq_heap, issue_t)
                elif issue_t > iq_heap[0]:
                    heapreplace(iq_heap, issue_t)

                if timing is not None:
                    timing["alloc"][gidx] = alloc_t
                    timing["ready"][gidx] = ready
                    timing["issue"][gidx] = issue_t
                    timing["complete"][gidx] = complete_t
                    timing["retire"][gidx] = retire_t
                    timing["mispredict"][gidx] = branch_misp
        base += wn

    # Write the local accumulators back to the result (the prediction
    # family is structurally zero on this backend — see the delegation
    # rule — but assigned for symmetry with the scalar loops).
    main_buckets[RETIRING] += main_retiring
    warmup_buckets[RETIRING] += warm_retiring
    result.loads = c_loads
    result.stores = c_stores
    result.branches = c_branches
    result.branch_mispredicts = c_branch_miss
    result.mem_violations = c_mem_viol
    result.predicted_loads = 0
    result.predicted_nonloads = 0
    result.mr_predictions = 0
    result.register_predictions = 0
    result.correct_predictions = 0
    result.wrong_predictions = 0
    result.vp_flushes = 0

    result.cycles = prev_retire - cycle_base
    if level_base is None:
        # The warmup edge was never crossed by a memory pre-pass (no
        # post-warmup memory ops): the counts have not moved since the
        # edge, so snapshotting now yields the same delta.
        level_base = dict(memory.level_counts)
    result.level_counts = {
        level: count - level_base.get(level, 0)
        for level, count in memory.level_counts.items()}
    result.events = None

    engine._vec_windows = vec_windows
    engine._vec_ops = vec_ops
    engine._vec_fallback_windows = fb_windows
    engine._vec_fallback_ops = fb_ops


__all__ = ["time_trace_vector"]
