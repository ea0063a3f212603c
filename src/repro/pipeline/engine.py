"""Cycle-level OOO timing engine.

A single-pass, program-order constraint solver: for every micro-op it
computes ``alloc``, ``ready``, ``issue``, ``complete`` and ``retire``
timestamps subject to the machine's width, window, port, and dataflow
constraints (see DESIGN.md §5 for the model statement).  Wrong-path
fetch is abstracted into redirect penalties, as in classic trace-driven
simulators.

The engine hosts exactly one :class:`~repro.pipeline.vp_interface.ValuePredictor`
and gives it the architectural hooks the paper's hardware has: a
front-end lookup at allocation, a training call at execution carrying
the retirement-stall criticality signal, and the LSQ forwarding tap.

Cycle accounting (docs/TELEMETRY.md): as each op's retirement is
scheduled, the gap back to the previous retirement is charged to the
top-down cause that bound it — flush recovery or fetch before
allocation, a producer dependence (load vs non-load) before the op
was ready, then the op's own execution.  Window, queue and port bounds
are times of older ops, never above the previous retirement, so no
bucket is theirs.  The per-bucket totals partition the run's cycles
exactly, and every component publishes its statistics into one
:class:`~repro.telemetry.stats.StatGroup` tree on the result.

Two implementations of the per-op loop coexist (docs/PERF.md,
docs/VECTOR.md):

* the **scalar** backend, :meth:`Engine._time_trace` — the default,
  optimized per-op hot path.  It precomputes op-class dispatch tables,
  inlines the bandwidth machines and the fetch-line check, keeps
  headline counters in locals, and skips engine→predictor calls that
  resolve to the no-op base-class implementations.
* the **vector** backend (:mod:`repro.pipeline.engine_vector`), run
  only when a caller passes ``backend="vector"``, so no default run
  imports numpy.  It consumes structure-of-arrays windows, batches the
  program-order machines into per-window pre-passes, and falls back
  per window (store→load aliasing) or per run (predictor hooks, event
  collection) to the scalar loop.

Both produce **bit-identical**
:class:`~repro.pipeline.results.SimResult` objects for any
(trace, config, predictor) — asserted across the workload catalogue by
``tests/test_perf_neutrality.py`` and policed statically by reprolint
RL003.  The model itself is checked against an independent,
cycle-stepped core in ``tests/oracle.py`` (docs/ENGINE.md §How the
model is checked).
"""

from __future__ import annotations

import heapq
import importlib.util
import os
import weakref
from typing import Optional, Sequence, Union

from repro.errors import (ConfigError, InvariantViolation,
                          NonTerminatingSimulation)
from repro.frontend.fetch import FrontEnd
from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.memory.disambiguation import StoreSets
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.results import SimResult
from repro.pipeline.vp_interface import (EngineContext, NoPredictor,
                                         ValuePredictor)
from repro.telemetry.stalls import (
    BRANCH_FLUSH,
    FRONTEND_STARVED,
    HEAD_WAIT_EXEC,
    HEAD_WAIT_LOAD,
    MEM_FLUSH,
    RETIRING,
    VP_FLUSH,
    empty_buckets,
)
from repro.telemetry.stats import StatGroup
from repro.telemetry.trace import DEFAULT_CAPACITY, EventTrace
from repro.trace.source import PassStats, TraceSource, as_source

# Port-group aliasing: control ops share the branch ports, NOPs flow
# through the ALU ports.
_GROUP_OF = {
    opcodes.ALU: opcodes.ALU,
    opcodes.MUL: opcodes.MUL,
    opcodes.DIV: opcodes.DIV,
    opcodes.FP: opcodes.FP,
    opcodes.LOAD: opcodes.LOAD,
    opcodes.STORE: opcodes.STORE,
    opcodes.BRANCH: opcodes.BRANCH,
    opcodes.JUMP: opcodes.BRANCH,
    opcodes.IJUMP: opcodes.BRANCH,
    opcodes.NOP: opcodes.ALU,
}

_NUM_OP_CLASSES = max(_GROUP_OF) + 1

#: Op class → port-group key, as a tuple for O(1) C-level indexing on
#: the hot path (dict hashing avoided).
_GROUP_TAB = tuple(_GROUP_OF[op] for op in range(_NUM_OP_CLASSES))

#: Op class → is it a control-flow op (frozenset membership hoisted
#: into an indexed table for the hot path).
_IS_CONTROL_TAB = tuple(op in opcodes.CONTROL for op in range(_NUM_OP_CLASSES))

_ADDR_ALIGN = ~0x7  # store→load forwarding tracked at 8-byte granularity


#: Sentinel cycle limit when no ``max_cycles`` watchdog is armed: one
#: integer comparison per op against a bound no real simulation reaches,
#: so the guardrail is zero-cost when disabled.
_NO_CYCLE_LIMIT = 1 << 62


#: The two timing-loop implementations (docs/VECTOR.md), in the order
#: of their telemetry codes (``engine.backend``): 1 and 2.  Code 0 was
#: the retired reference loop and is not reused, so the telemetry of
#: cached results keeps its meaning.
BACKENDS = ("scalar", "vector")

#: Whether the vector backend's numpy dependency is importable (probed
#: without importing, so scalar-only runs never pay the import).
_HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


def _invariants_requested() -> bool:
    """True when ``REPRO_CHECK_INVARIANTS`` arms the post-run audit."""
    return os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")


def _default_max_cycles() -> Optional[int]:
    """The ``REPRO_MAX_CYCLES`` environment default (None when unset)."""
    text = os.environ.get("REPRO_MAX_CYCLES", "")
    if not text or text == "0":
        return None
    if not text.isdigit():
        raise ConfigError(
            f"REPRO_MAX_CYCLES must be a whole number of cycles (0 or "
            f"unset disarms the watchdog), got {text!r}")
    return int(text)


class Engine:
    """Times one trace on one core configuration with one predictor.

    Parameters
    ----------
    config:
        The :class:`~repro.pipeline.config.CoreConfig` to model.
    predictor:
        The hosted :class:`~repro.pipeline.vp_interface.ValuePredictor`
        (``None`` → the no-prediction baseline).
    collect_timing:
        Retain per-op alloc/ready/issue/complete/retire arrays on the
        result (``SimResult.timing``).
    collect_events:
        Record the bounded pipeline event trace (``SimResult.events``).
    event_capacity:
        Ring capacity for the event trace (newest events win).
    collect_stalls:
        Run the per-gap stall-attribution pass (default).  Disabling it
        leaves ``SimResult.stall_cycles`` zeroed and the stall-gap
        histogram empty but does not change any timing outcome; the
        ablation ladder in ``bench/`` uses this to measure what stall
        attribution costs.
    max_cycles:
        Watchdog budget for the whole run, in simulated cycles
        (including warmup).  A run that exceeds it aborts with
        :class:`~repro.errors.NonTerminatingSimulation` carrying a
        diagnostic snapshot of where the simulation was stuck.
        ``None`` (the default) reads the ``REPRO_MAX_CYCLES``
        environment variable; unset/0 disarms the watchdog, which then
        costs one integer comparison per op against an unreachable
        sentinel.  See docs/ROBUSTNESS.md.
    backend:
        Which timing-loop implementation runs (docs/VECTOR.md):
        ``"scalar"`` (also what ``None``, the default, runs) or
        ``"vector"``.  Both backends are bit-identical; ``"vector"``
        without numpy raises :class:`~repro.errors.ConfigError` at run
        time.
    """

    def __init__(self, config: CoreConfig,
                 predictor: Optional[ValuePredictor] = None,
                 collect_timing: bool = False,
                 collect_events: bool = False,
                 event_capacity: int = DEFAULT_CAPACITY,
                 collect_stalls: bool = True,
                 max_cycles: Optional[int] = None,
                 backend: Optional[str] = None) -> None:
        if max_cycles is None:
            max_cycles = _default_max_cycles()
        elif max_cycles <= 0:
            raise ConfigError(
                f"max_cycles must be positive, got {max_cycles}")
        if backend is not None and backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {backend!r}")
        self.backend = backend
        self.max_cycles = max_cycles
        self.config = config
        self.predictor = predictor or NoPredictor()
        self.collect_timing = collect_timing
        self.collect_events = collect_events
        self.collect_stalls = collect_stalls
        self.event_capacity = event_capacity
        self.frontend = FrontEnd(config.frontend)
        self.memory = MemoryHierarchy(config.memory)
        self.store_sets = StoreSets()

        # Execution resources.
        self._port_heaps = {}
        for op, group in config.ports.items():
            key = _GROUP_OF[op]
            if key == op:
                self._port_heaps[key] = [0] * group.count
        self._issue_bw = [0] * config.issue_width

        # Per-op-class dispatch tables (precomputed once per config so
        # the hot loop replaces two dict lookups and two attribute
        # chains per op with tuple indexing).
        ports = config.ports
        self._push_tab = tuple(
            (1 if ports[op].pipelined else ports[op].latency)
            if op in ports else None
            for op in range(_NUM_OP_CLASSES))
        self._lat_tab = tuple(
            ports[op].latency if op in ports else None
            for op in range(_NUM_OP_CLASSES))

        # Context shared with the predictor.  The store-tracking
        # callable reaches the engine through a weak reference: a bound
        # method would close the cycle engine -> context -> engine, and
        # then no finished Engine could be freed before the cycle
        # collector ran.
        self._ctx = EngineContext()
        engine_ref = weakref.ref(self)

        def store_inflight_to_addr(addr: int):
            return engine_ref()._store_inflight_to_addr(addr)

        self._ctx.store_inflight_to_addr = store_inflight_to_addr
        self._ctx.probe_level = self.memory.probe_level

        # Per-run state initialised in run().
        self._reg_ready = None
        self._retire_times = None
        self._store_by_addr = None
        self._store_records = None
        self._now_alloc = 0

        # Vector-backend coverage counters, published as the
        # ``engine.*`` telemetry group (zero on the scalar backends).
        self._vec_windows = 0
        self._vec_ops = 0
        self._vec_fallback_windows = 0
        self._vec_fallback_ops = 0
        self._vec_delegated = False

    # ------------------------------------------------------------------
    # Store-tracking callable exposed through the context.
    # ------------------------------------------------------------------
    def _store_inflight_to_addr(self, addr: int):
        """(seq, pc, value, complete) of the newest in-flight store to
        ``addr`` (8-byte aligned), else None."""
        entry = self._store_by_addr.get(addr & _ADDR_ALIGN)
        if entry is None:
            return None
        seq, pc, complete, retire, value = entry
        if retire < self._now_alloc:
            return None
        return seq, pc, value, complete

    # ------------------------------------------------------------------
    def run(self, trace: Union[TraceSource, Sequence[MicroOp]],
            workload: str = "trace", warmup: int = 0) -> SimResult:
        """Time ``trace`` and return its :class:`SimResult`.

        Parameters
        ----------
        trace:
            A :class:`~repro.trace.source.TraceSource` (streaming,
            bounded-window delivery — see docs/TRACES.md) or a plain
            program-order sequence of
            :class:`~repro.isa.instruction.MicroOp` records (e.g. from
            :func:`repro.trace.build_trace`), which is wrapped in the
            zero-copy list adapter.  Both paths produce bit-identical
            results.
        workload:
            Label recorded on the result.
        warmup:
            Number of leading micro-ops excluded from statistics.
            Predictors and caches train throughout — warmup measures
            the steady state the paper's long simulations report.

        Returns
        -------
        SimResult
            Cycles, IPC, prediction/branch/memory counters, the exact
            stall-cycle partition, and the per-component telemetry
            tree.  Deterministic: the same inputs always produce a
            bit-identical result, whichever backend runs
            (docs/VECTOR.md documents the two-loop identity
            contract).
        """
        source = as_source(trace)
        result = SimResult(workload, self.config.name, self.predictor.name)
        n = len(source)
        if warmup < 0 or warmup >= n and n > 0:
            raise ValueError(f"warmup {warmup} must be in [0, {n})")
        result.instructions = n - warmup
        telemetry = StatGroup("sim")
        stream = source.last_pass
        audit = _invariants_requested()
        forced_timing = audit and not self.collect_timing
        if forced_timing:
            self.collect_timing = True
        self._vec_windows = 0
        self._vec_ops = 0
        self._vec_fallback_windows = 0
        self._vec_fallback_ops = 0
        self._vec_delegated = False
        try:
            if n:
                pipeline_group = telemetry.group(
                    "pipeline", "cycle accounting and stall attribution")
                gap_hist = pipeline_group.histogram(
                    "stall-gaps", "non-retiring gap lengths (post-warmup)")
                if self._resolve_backend() == "scalar":
                    self._time_trace(source, warmup, result, gap_hist)
                else:
                    self._time_trace_vector(source, warmup, result,
                                            gap_hist)
                # Capture delivery stats before the audit's second pass
                # overwrites them.
                stream = source.last_pass
                if audit:
                    self._check_invariants(source, warmup, result)
        finally:
            if forced_timing:
                self.collect_timing = False
                result.timing = None
        result.telemetry = self._publish(result, telemetry, stream)
        return result

    # ------------------------------------------------------------------
    def _resolve_backend(self) -> str:
        """Which timing loop this run uses (docs/VECTOR.md): ``vector``
        only when the constructor asked for it, ``scalar`` otherwise.
        A ``vector`` request without numpy is a :class:`ConfigError`
        rather than a silent downgrade."""
        if self.backend != "vector":
            return "scalar"
        if not _HAVE_NUMPY:
            raise ConfigError(
                "the vector engine backend requires numpy, which is not "
                "importable here; select backend='scalar' instead")
        return "vector"

    def _time_trace_vector(self, trace: TraceSource, warmup: int,
                           result: SimResult, gap_hist) -> None:
        """Vectorized structure-of-arrays loop (the ``vector``
        backend).  Thin delegator: the implementation lives in
        :mod:`repro.pipeline.engine_vector`, imported lazily so the
        scalar loop never pays the numpy import."""
        from repro.pipeline import engine_vector
        engine_vector.time_trace_vector(self, trace, warmup, result,
                                        gap_hist)

    # ------------------------------------------------------------------
    def _time_trace(self, trace: TraceSource, warmup: int,
                    result: SimResult, gap_hist) -> None:
        """Optimized per-op loop (the default hot path).

        Solves docs/ENGINE.md's timestamp recurrence in one
        program-order pass; ``tests/oracle.py`` is the cycle-stepped
        spec it is checked against.  For speed it uses op-class
        dispatch tables instead of dict lookups, inlines the
        alloc/retire bandwidth machines as local integers and the
        fetch-line check, accumulates headline counters in locals and
        writes them back once, recomputes the branch-history context
        only after control ops, and skips calls into the predictor that
        would hit the no-op base-class implementation.
        """
        cfg = self.config
        predictor = self.predictor
        frontend = self.frontend
        memory = self.memory
        ctx = self._ctx
        n = len(trace)

        # Engine→predictor calls that resolve to the ValuePredictor
        # base class are guaranteed no-ops: skip them (and, when no
        # hook needs it, the whole EngineContext bookkeeping).
        pcls = type(predictor)
        predict = predictor.predict \
            if pcls.predict is not ValuePredictor.predict else None
        train = predictor.train_execute \
            if pcls.train_execute is not ValuePredictor.train_execute else None
        tick = predictor.epoch_tick \
            if pcls.epoch_tick is not ValuePredictor.epoch_tick else None
        on_fwd = predictor.on_forwarding \
            if pcls.on_forwarding is not ValuePredictor.on_forwarding else None
        need_ctx = (predict is not None or train is not None
                    or on_fwd is not None)
        # The per-op ROB-head bisect and L1-hit fields are only read by
        # criticality-driven predictors (ValuePredictor.needs_criticality).
        need_crit = train is not None and getattr(
            predictor, "needs_criticality", True)

        cycle_base = 0
        level_base = {}

        reg_ready = [0] * 16
        reg_writer_load = [False] * 16
        writer_pc = [0] * 16
        self._reg_ready = reg_ready
        ctx.writer_pc = writer_pc

        retire_times: list = []
        self._retire_times = retire_times
        load_retires: list = []
        store_retires: list = []
        iq_heap: list = []

        self._store_by_addr = {}
        self._store_records = {}
        store_by_addr = self._store_by_addr
        store_records = self._store_records

        # Inlined in-order bandwidth machines: at most ``width`` events
        # per cycle, event times never decrease.
        alloc_width = cfg.fetch_width
        alloc_cycle = -1
        alloc_count = 0
        retire_bw = cfg.retire_width
        retire_cycle = -1
        retire_count = 0
        cycle_limit = self.max_cycles if self.max_cycles is not None \
            else _NO_CYCLE_LIMIT

        port_heaps = {key: list(h) for key, h in self._port_heaps.items()}
        for heap in port_heaps.values():
            heapq.heapify(heap)
        heap_tab = [port_heaps.get(group) for group in
                    range(max(port_heaps, default=0) + 1)]
        issue_bw = list(self._issue_bw)
        heapq.heapify(issue_bw)

        redirect_t = 0
        redirect_cause = FRONTEND_STARVED  # placeholder until a flush
        prev_retire = 0
        num_loads = 0
        num_stores = 0

        # Cycle accounting (post-warmup and warmup partitions).
        collect_stalls = self.collect_stalls
        main_buckets = result.stall_cycles
        warmup_buckets = result.warmup_stall_cycles
        main_retiring = 0
        warm_retiring = 0
        observe_gap = gap_hist.observe

        events = EventTrace(self.event_capacity) \
            if self.collect_events else None
        record_event = events.record if events is not None else None

        timing = None
        if self.collect_timing:
            timing = {k: [0] * n for k in
                      ("alloc", "ready", "issue", "complete", "retire")}
            timing["mispredict"] = [False] * n
            result.timing = timing

        # Headline counters kept in locals, written back after the loop.
        c_loads = 0
        c_stores = 0
        c_branches = 0
        c_branch_miss = 0
        c_mem_viol = 0
        c_pred_loads = 0
        c_pred_nonloads = 0
        c_mr_pred = 0
        c_reg_pred = 0
        c_correct = 0
        c_wrong = 0
        c_vp_flush = 0
        by_source = result.by_source

        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        fwd_latency = cfg.forward_latency
        vp_penalty = cfg.vp_penalty
        mem_violation_penalty = cfg.mem_violation_penalty
        mispredict_penalty = frontend.mispredict_penalty
        retire_width = cfg.retire_width
        store_prune_limit = 4 * sq_size

        # Bound methods/constants hoisted out of the loop.
        group_tab = _GROUP_TAB
        is_control_tab = _IS_CONTROL_TAB
        push_tab = self._push_tab
        lat_tab = self._lat_tab
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        memory_access = memory.access
        process_control = frontend.process_control
        fetch_bubbles = frontend.fetch_bubbles
        load_dependence = self.store_sets.load_dependence
        record_violation = self.store_sets.record_violation
        store_dispatched = self.store_sets.store_dispatched
        prune_stores = self._prune_stores
        abort_nonterminating = self._abort_nonterminating
        history = frontend.history
        icache_line = frontend.config.icache_line
        last_fetch_line = frontend._last_fetch_line
        LOAD_OP = opcodes.LOAD
        STORE_OP = opcodes.STORE
        ADDR_ALIGN = _ADDR_ALIGN
        MASK32 = (1 << 32) - 1
        MASK128 = (1 << 128) - 1

        if need_ctx:
            bits = history.bits
            ctx.history32 = bits & MASK32
            ctx.history = bits & MASK128

        idx = -1
        for _window in trace.chunks():
            for uop in _window:
                idx += 1
                op = uop.op
                pc = uop.pc
                is_load = op == LOAD_OP
                is_store = op == STORE_OP
                collecting = idx >= warmup
                if idx == warmup:
                    cycle_base = prev_retire
                    # Snapshot runs once per simulation, at the warmup edge.
                    level_base = dict(memory.level_counts)  # reprolint: disable=RL002

                # ---------------- front end / allocate ----------------
                earliest = redirect_t
                alloc_cause = redirect_cause
                line = pc // icache_line
                if line != last_fetch_line:
                    last_fetch_line = line
                    bubbles = fetch_bubbles(pc)
                    if bubbles:
                        base = earliest if earliest > alloc_cycle \
                            else alloc_cycle
                        earliest = base + bubbles
                        alloc_cause = FRONTEND_STARVED
                # Window and queue bounds are older ops' retire or issue
                # times, at most prev_retire: they never own a charged cycle.
                if idx >= rob_size:
                    t = retire_times[idx - rob_size]
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

                # ---------------- context + front-end VP lookup ----------------
                fwd = None
                if is_load:
                    num_loads += 1
                    if collecting:
                        c_loads += 1
                    entry = store_by_addr.get(uop.addr & ADDR_ALIGN)
                    if entry is not None and entry[3] >= alloc_t:
                        fwd = entry  # (seq, pc, complete, retire, value)

                if need_ctx:
                    self._now_alloc = alloc_t
                    ctx.seq = idx

                prediction = predict(uop, ctx) if predict is not None else None

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
                level = "L1"
                if is_load:
                    if fwd is not None and not violation:
                        store_complete = fwd[2]
                        base = issue_t if issue_t > store_complete \
                            else store_complete
                        complete_t = base + fwd_latency
                        if on_fwd is not None:
                            on_fwd(fwd[1], pc, fwd[0])
                    else:
                        latency, level = memory_access(pc, uop.addr, issue_t)
                        complete_t = issue_t + latency
                        if violation:
                            if collecting:
                                c_mem_viol += 1
                            record_violation(pc, fwd[1])
                            t = complete_t + mem_violation_penalty
                            if t > redirect_t:
                                redirect_t = t
                                redirect_cause = MEM_FLUSH
                                if record_event is not None:
                                    record_event(complete_t, "flush", idx,
                                                 pc, op, MEM_FLUSH)
                elif is_store:
                    complete_t = issue_t + 1
                    memory_access(pc, uop.addr, complete_t, is_store=True)
                else:
                    complete_t = issue_t + lat_tab[op]

                # ---------------- retire (inlined width machine) ----------
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
                    abort_nonterminating(idx, n, pc, retire_t)

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

                # ---------------- criticality signal ----------------
                # The ROB head at complete_t is the oldest op retiring
                # after it.  Fewer than retire_width older ops retire
                # after complete_t iff the retire_width-th newest does
                # not (retire times never decrease), so one comparison
                # replaces a bisect over the retire times.
                if need_crit:
                    ctx.stalls_retirement = (
                        retire_t == complete_t + 1
                        and (idx < retire_width
                             or retire_times[idx - retire_width]
                             <= complete_t))
                    ctx.l1_hit = level == "L1"

                # ---------------- control flow ----------------
                branch_misp = False
                if is_control_tab[op]:
                    if collecting:
                        c_branches += 1
                    correct_cf = process_control(pc, op, uop.taken, uop.target)
                    if need_ctx:
                        bits = history.bits
                        ctx.history32 = bits & MASK32
                        ctx.history = bits & MASK128
                    if not correct_cf:
                        if collecting:
                            c_branch_miss += 1
                        branch_misp = True
                        t = complete_t + mispredict_penalty
                        if t > redirect_t:
                            redirect_t = t
                            redirect_cause = BRANCH_FLUSH
                            if record_event is not None:
                                record_event(complete_t, "flush", idx,
                                             pc, op, BRANCH_FLUSH)
                if need_ctx:
                    ctx.branch_mispredicted = branch_misp

                # ---------------- value-prediction outcome ----------------
                vp_correct = True
                if prediction is not None:
                    vp_correct = prediction.value == uop.value
                    if collecting:
                        if is_load:
                            c_pred_loads += 1
                        else:
                            c_pred_nonloads += 1
                        if prediction.store_seq is not None:
                            c_mr_pred += 1
                        else:
                            c_reg_pred += 1
                        attribution = by_source.get(prediction.source)
                        if attribution is None:
                            # First sighting of a source: one list per
                            # source per run (setdefault would build and
                            # discard the default on every predicted op).
                            attribution = [0, 0]  # reprolint: disable=RL002
                            by_source[prediction.source] = attribution
                        attribution[0] += 1
                        if vp_correct:
                            attribution[1] += 1
                            c_correct += 1
                        else:
                            c_wrong += 1
                            c_vp_flush += 1
                    if not vp_correct:
                        t = complete_t + vp_penalty
                        if t > redirect_t:
                            redirect_t = t
                            redirect_cause = VP_FLUSH
                            if record_event is not None:
                                record_event(complete_t, "flush", idx,
                                             pc, op, VP_FLUSH)

                # ---------------- architectural updates ----------------
                dest = uop.dest
                if dest is not None:
                    if prediction is not None and vp_correct:
                        avail = alloc_t + 1
                        if prediction.store_seq is not None:
                            rec = store_records.get(prediction.store_seq)
                            if rec is not None and rec[2] > avail:
                                avail = rec[2]
                        reg_ready[dest] = avail
                        reg_writer_load[dest] = False
                    else:
                        reg_ready[dest] = complete_t
                        reg_writer_load[dest] = is_load
                    if need_ctx:
                        writer_pc[dest] = pc

                if is_store:
                    num_stores += 1
                    if collecting:
                        c_stores += 1
                    store_dispatched(pc, idx)
                    addr8 = uop.addr & ADDR_ALIGN
                    value = uop.value
                    store_by_addr[addr8] = (idx, pc, complete_t, retire_t, value)
                    store_records[idx] = (pc, addr8, complete_t, retire_t, value)
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

                # ---------------- training ----------------
                if train is not None:
                    train(uop, ctx, prediction, vp_correct)
                if tick is not None:
                    tick(idx + 1)

                if timing is not None:
                    timing["alloc"][idx] = alloc_t
                    timing["ready"][idx] = ready
                    timing["issue"][idx] = issue_t
                    timing["complete"][idx] = complete_t
                    timing["retire"][idx] = retire_t
                    timing["mispredict"][idx] = branch_misp

                if record_event is not None:
                    record_event(alloc_t, "alloc", idx, pc, op)
                    record_event(issue_t, "issue", idx, pc, op)
                    record_event(complete_t, "complete", idx, pc, op)
                    record_event(retire_t, "retire", idx, pc, op)

        # Write the local accumulators back to the result.
        main_buckets[RETIRING] += main_retiring
        warmup_buckets[RETIRING] += warm_retiring
        result.loads = c_loads
        result.stores = c_stores
        result.branches = c_branches
        result.branch_mispredicts = c_branch_miss
        result.mem_violations = c_mem_viol
        result.predicted_loads = c_pred_loads
        result.predicted_nonloads = c_pred_nonloads
        result.mr_predictions = c_mr_pred
        result.register_predictions = c_reg_pred
        result.correct_predictions = c_correct
        result.wrong_predictions = c_wrong
        result.vp_flushes = c_vp_flush

        result.cycles = prev_retire - cycle_base
        result.level_counts = {
            level: count - level_base.get(level, 0)
            for level, count in memory.level_counts.items()}
        result.events = events

    # ------------------------------------------------------------------
    # Guardrails (docs/ROBUSTNESS.md).
    # ------------------------------------------------------------------
    def _abort_nonterminating(self, idx: int, n: int, pc: int,
                              cycle: int) -> None:
        """Raise the ``max_cycles`` watchdog with a diagnostic snapshot
        of where the simulation was when it blew its cycle budget."""
        snapshot = {
            "op_index": idx,
            "trace_length": n,
            "pc": pc,
            "cycle": cycle,
            "max_cycles": self.max_cycles,
            "config": self.config.name,
            "predictor": self.predictor.name,
        }
        raise NonTerminatingSimulation(
            f"simulation exceeded max_cycles={self.max_cycles} at cycle "
            f"{cycle} (op {idx}/{n}, pc {pc:#x}); "
            "runaway configuration or model bug", snapshot)

    def _check_invariants(self, trace: TraceSource, warmup: int,
                          result: SimResult) -> None:
        """Opt-in post-run audit (``REPRO_CHECK_INVARIANTS=1``).

        Asserts the structural invariants of the timing model on the
        run that just finished: per-op event ordering (alloc ≤ issue,
        ready ≤ issue, issue < complete < retire), monotone in-order
        retirement, ROB/LQ/SQ occupancy never exceeding capacity, and
        the stall-cycle partition summing exactly to the cycle count.
        Raises :class:`~repro.errors.InvariantViolation` on the first
        violated property."""
        timing = result.timing

        def fail(message: str) -> None:
            """Raise :class:`InvariantViolation` tagged with the run identity."""
            raise InvariantViolation(
                f"invariant violated ({result.workload}/"
                f"{self.config.name}/{self.predictor.name}): {message}")

        if timing is not None:
            alloc = timing["alloc"]
            ready = timing["ready"]
            issue = timing["issue"]
            complete = timing["complete"]
            retire = timing["retire"]
            cfg = self.config
            loads: list = []
            stores: list = []
            prev = 0
            for idx, uop in enumerate(trace):
                if not (alloc[idx] <= issue[idx] and ready[idx] <= issue[idx]
                        and issue[idx] < complete[idx]
                        and complete[idx] < retire[idx]):
                    fail(f"op {idx}: event order alloc={alloc[idx]} "
                         f"ready={ready[idx]} issue={issue[idx]} "
                         f"complete={complete[idx]} retire={retire[idx]}")
                if retire[idx] < prev:
                    fail(f"op {idx}: retirement went backwards "
                         f"({retire[idx]} < {prev})")
                prev = retire[idx]
                if idx >= cfg.rob_size \
                        and alloc[idx] < retire[idx - cfg.rob_size]:
                    fail(f"op {idx}: ROB occupancy exceeds "
                         f"{cfg.rob_size}")
                if uop.op == opcodes.LOAD:
                    loads.append(idx)
                    if len(loads) > cfg.lq_size and alloc[idx] < \
                            retire[loads[-1 - cfg.lq_size]]:
                        fail(f"op {idx}: LQ occupancy exceeds "
                             f"{cfg.lq_size}")
                elif uop.op == opcodes.STORE:
                    stores.append(idx)
                    if len(stores) > cfg.sq_size and alloc[idx] < \
                            retire[stores[-1 - cfg.sq_size]]:
                        fail(f"op {idx}: SQ occupancy exceeds "
                             f"{cfg.sq_size}")
        if self.collect_stalls:
            stalled = sum(result.stall_cycles.values())
            if stalled != result.cycles:
                fail(f"stall partition sums to {stalled}, "
                     f"cycles = {result.cycles}")

    # ------------------------------------------------------------------
    def _publish(self, result: SimResult, telemetry: StatGroup,
                 stream: PassStats) -> StatGroup:
        """Assemble the per-run statistic tree: the engine's cycle
        accounting, the trace-delivery stats, and every component's
        published group."""
        source_group = telemetry.group(
            "source", "trace delivery (streaming bounded windows)")
        source_group.counter("ops", "micro-ops delivered", stream.ops)
        source_group.counter("chunks", "bounded windows delivered",
                             stream.chunks)
        source_group.counter("peak-window",
                             "largest resident window (micro-ops)",
                             stream.peak_window)
        engine_group = telemetry.group(
            "engine", "timing-loop backend and vector coverage")
        engine_group.counter(
            "backend", "backend code (1=scalar 2=vector)",
            1 + BACKENDS.index(self._resolve_backend()))
        engine_group.counter("vector-windows",
                             "windows timed by the vector recurrence",
                             self._vec_windows)
        engine_group.counter("vector-ops",
                             "micro-ops timed by the vector recurrence",
                             self._vec_ops)
        engine_group.counter("fallback-windows",
                             "windows timed by the scalar fallback",
                             self._vec_fallback_windows)
        engine_group.counter("fallback-ops",
                             "micro-ops timed by the scalar fallback",
                             self._vec_fallback_ops)
        engine_group.counter(
            "delegated",
            "vector run delegated whole to the scalar loop (0/1)",
            int(self._vec_delegated))
        pipeline_group = telemetry.group(
            "pipeline", "cycle accounting and stall attribution")
        pipeline_group.counter("cycles", "post-warmup cycles",
                               result.cycles)
        pipeline_group.counter("instructions", "post-warmup micro-ops",
                               result.instructions)
        stalls = pipeline_group.group("stalls",
                                      "post-warmup cycle partition")
        stalls.counters_from(result.stall_cycles)
        warm = pipeline_group.group("warmup-stalls",
                                    "warmup-prefix cycle partition")
        warm.counters_from(result.warmup_stall_cycles)
        self.frontend.publish_stats(
            telemetry.group("frontend", "branch prediction and fetch"))
        memory_group = telemetry.group("memory", "data-side hierarchy")
        memory_group.group(
            "levels", "post-warmup accesses served per level"
        ).counters_from(result.level_counts)
        self.memory.publish_stats(memory_group)
        self.predictor.publish_stats(
            telemetry.group("predictor", "value-predictor internals"))
        return telemetry

    def _prune_stores(self, now: int) -> None:
        """Drop store records that can no longer forward or be renamed."""
        dead = [seq for seq, rec in self._store_records.items()
                if rec[3] < now]
        for seq in dead:
            addr8 = self._store_records.pop(seq)[1]
            entry = self._store_by_addr.get(addr8)
            if entry is not None and entry[0] == seq:
                del self._store_by_addr[addr8]


def simulate(trace: Union[TraceSource, Sequence[MicroOp]], *,
             config: Optional[CoreConfig] = None,
             predictor: Optional[ValuePredictor] = None,
             workload: str = "trace", warmup: int = 0,
             collect_timing: bool = False,
             collect_events: bool = False,
             collect_stalls: bool = True,
             max_cycles: Optional[int] = None,
             backend: Optional[str] = None) -> SimResult:
    """One-call convenience wrapper: build an engine and run a trace.

    Everything beyond the trace is keyword-only.

    Parameters
    ----------
    trace:
        A :class:`~repro.trace.source.TraceSource` or a program-order
        :class:`~repro.isa.instruction.MicroOp` sequence.
    config:
        Core configuration (default :meth:`CoreConfig.skylake`).
    predictor:
        Hosted value predictor (``None`` → no-prediction baseline).
    workload:
        Label recorded on the result.
    warmup:
        Leading micro-ops excluded from statistics.
    collect_timing, collect_events, collect_stalls:
        Optional telemetry switches — see :class:`Engine`.
    max_cycles:
        Optional non-termination watchdog budget — see :class:`Engine`.
    backend:
        Timing-loop backend (``"scalar"``, the default, or
        ``"vector"`` — docs/VECTOR.md).

    >>> from repro.isa import alu
    >>> r = simulate([alu(0x400000 + 4 * i, dest=0, value=i)
    ...               for i in range(64)])
    >>> r.instructions
    64
    """
    engine = Engine(config or CoreConfig.skylake(), predictor,
                    collect_timing=collect_timing,
                    collect_events=collect_events,
                    collect_stalls=collect_stalls,
                    max_cycles=max_cycles, backend=backend)
    return engine.run(trace, workload=workload, warmup=warmup)
