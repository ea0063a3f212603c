"""A cycle-stepped out-of-order core: the timing model's independent spec.

``repro.pipeline.engine`` computes each op's timestamps in one
program-order pass.  This core steps through cycles one at a time and
moves ops through explicit ROB, IQ, LQ and SQ occupancy instead.  Each
cycle runs the stages in reverse, so a stage frees entries before the
stage behind it fills them:

1. **retire** — in order, at most ``retire_width`` ops, each at least
   one cycle after it completed;
2. **complete** — a mispredicted branch or a wrong value prediction
   resolves here, and fetch resumes ``penalty`` cycles later;
3. **issue** — ready ops, oldest first, at most ``issue_width`` per
   cycle and one free unit of the op's port class each (an unpipelined
   unit is held for ``latency`` cycles).  A load whose forwarding store
   had no data at the load's ``ready`` cycle violates memory ordering:
   every younger op is squashed (entries and unit holds freed) and
   allocates again from ``complete + mem_violation_penalty``;
4. **allocate** — in order, at most ``fetch_width`` ops.

Memory latencies, fetch bubbles, branch mispredicts and value
predictions are inputs (:func:`run_oracle`), so this core and the
engine see the same outcomes.  Nothing here imports the engine.
"""

from __future__ import annotations

from repro.isa import opcodes
from repro.memory.disambiguation import StoreSets

LOAD, STORE = opcodes.LOAD, opcodes.STORE

#: Op class -> the port class it issues on (control ops share the
#: branch units, NOPs the ALU units).
PORT_CLASS = {op: op for op in opcodes.ALL_CLASSES}
PORT_CLASS.update({opcodes.JUMP: opcodes.BRANCH,
                   opcodes.IJUMP: opcodes.BRANCH,
                   opcodes.NOP: opcodes.ALU})

TIMESTAMPS = ("alloc", "ready", "issue", "complete", "retire")


class _Core:
    def __init__(self, trace, config, latency, bubbles, mispredicts,
                 predictions):
        self.trace, self.cfg, self.latency = trace, config, latency
        self.bubbles, self.predictions = bubbles, predictions
        n = len(trace)
        self.times = {key: [None] * n for key in TIMESTAMPS}
        self.head_distance = [None] * n  # from the ROB head at complete
        self.penalty = [None] * n   # flush penalty an op resolves with
        self.flush_at = [None] * n  # fetch resumes here after its flush
        self.violated = {}          # load seq -> pc of the store it passed
        self.forwarder = [None] * n
        self.serialized = [False] * n
        self.producers = []         # newest older writer of each source
        writer = {}
        for seq, uop in enumerate(trace):
            self.producers.append([writer[src] for src in uop.srcs
                                   if src in writer])
            if uop.dest is not None:
                writer[uop.dest] = seq
            penalties = []
            if mispredicts[seq]:
                penalties.append(config.frontend.mispredict_penalty)
            if seq in predictions and not self._predicted_correctly(seq):
                penalties.append(config.vp_penalty)
            if penalties:
                self.penalty[seq] = max(penalties)
        self.rob, self.iq = [], []
        self.holds = []             # [release cycle, port class, seq]
        self.next = 0               # next op to allocate
        self.resume = 0             # fetch resumes at this cycle
        self.pending = None         # allocated op whose flush is unresolved

    # -- stages --------------------------------------------------------
    def retire(self, now):
        complete = self.times["complete"]
        for _ in range(self.cfg.retire_width):
            if not self.rob or complete[self.rob[0]] is None \
                    or complete[self.rob[0]] >= now:
                return
            self.times["retire"][self.rob.pop(0)] = now

    def complete(self, now):
        for seq in self.rob:
            if self.times["complete"][seq] == now:
                self.head_distance[seq] = seq - self.rob[0]
                if seq == self.pending:
                    self._flush(seq, now + self.penalty[seq])
                    self.pending = None

    def issue(self, now):
        self.holds = [hold for hold in self.holds if hold[0] > now]
        busy = {}
        for _release, port, _seq in self.holds:
            busy[port] = busy.get(port, 0) + 1
        issued = 0
        ready = self.times["ready"]
        for seq in list(self.iq):
            if ready[seq] is None and self._operands_ready(seq, now):
                ready[seq] = now
            uop = self.trace[seq]
            port, group = PORT_CLASS[uop.op], self.cfg.ports[uop.op]
            if ready[seq] is None or issued == self.cfg.issue_width \
                    or busy.get(port, 0) >= group.count:
                continue
            busy[port] = busy.get(port, 0) + 1
            issued += 1
            hold = 1 if group.pipelined else group.latency
            self.holds.append([now + hold, port, seq])
            self.iq.remove(seq)
            self.times["issue"][seq] = now
            self._execute(seq, uop, now)
            if seq in self.violated:
                return  # everything younger is gone

    def allocate(self, now):
        alloc = self.times["alloc"]
        for _ in range(self.cfg.fetch_width):
            seq = self.next
            if seq == len(self.trace) or self.pending is not None:
                return
            earliest = self.resume
            if self.bubbles[seq]:
                last = alloc[seq - 1] if seq else -1
                earliest = max(earliest, last) + self.bubbles[seq]
            op = self.trace[seq].op
            if (now < earliest or len(self.rob) >= self.cfg.rob_size
                    or len(self.iq) >= self.cfg.iq_size
                    or op == LOAD and self._held(LOAD) >= self.cfg.lq_size
                    or op == STORE
                    and self._held(STORE) >= self.cfg.sq_size):
                return
            alloc[seq] = now
            self.rob.append(seq)
            self.iq.append(seq)
            if op == LOAD:
                self._disambiguate(seq, now)
            if self.penalty[seq] is not None:
                self.pending = seq
            self.next += 1

    # -- helpers -------------------------------------------------------
    def _held(self, op):
        """LQ or SQ occupancy: entries live from alloc to retirement."""
        return sum(1 for seq in self.rob if self.trace[seq].op == op)

    def _predicted_correctly(self, seq):
        prediction = self.predictions.get(seq)
        return prediction is not None \
            and prediction.value == self.trace[seq].value

    def _operands_ready(self, seq, now):
        """Whether every value ``seq`` reads is available by ``now``."""
        if now <= self.times["alloc"][seq]:
            return False
        for producer in self.producers[seq]:
            avail = self._available(producer)
            if avail is None or avail > now:
                return False
        if self.serialized[seq]:
            done = self.times["complete"][self.forwarder[seq]]
            return done is not None and done <= now
        return True

    def _available(self, seq):
        """When ``seq``'s result reaches its consumers: at completion, or
        right after allocation when it was value-predicted correctly (a
        memory renaming waits for the renamed store's data too)."""
        times = self.times
        if not self._predicted_correctly(seq):
            return times["complete"][seq]
        avail = times["alloc"][seq] + 1
        store = self.predictions[seq].store_seq
        if store is not None and store < seq \
                and self.trace[store].op == STORE:
            done = times["complete"][store]
            avail = None if done is None else max(avail, done)
        return avail

    def _disambiguate(self, seq, now):
        """The load's forwarding store is the newest older store to its
        8-byte block, unless that retired before this cycle.  A
        store-sets table rebuilt from the older ops' history says
        whether the load waits for it."""
        block = self.trace[seq].addr & ~0x7
        self.forwarder[seq], self.serialized[seq] = None, False
        for older in range(seq - 1, -1, -1):
            store = self.trace[older]
            if store.op == STORE and store.addr & ~0x7 == block:
                retired = self.times["retire"][older]
                if retired is None or retired >= now:
                    self.forwarder[seq] = older
                break
        if self.forwarder[seq] is None:
            return
        sets = StoreSets()
        for older in range(seq):
            op = self.trace[older]
            if op.op == STORE:
                sets.store_dispatched(op.pc, older)
            elif older in self.violated:
                sets.record_violation(op.pc, self.violated[older])
        self.serialized[seq] = \
            sets.load_dependence(self.trace[seq].pc) is not None

    def _execute(self, seq, uop, now):
        complete = self.times["complete"]
        store = self.forwarder[seq]
        if uop.op == STORE:
            complete[seq] = now + 1
        elif uop.op != LOAD:
            complete[seq] = now + self.cfg.ports[uop.op].latency
        elif store is None:
            complete[seq] = now + self.latency(uop.addr)
        elif self.serialized[seq] or complete[store] is not None \
                and complete[store] <= self.times["ready"][seq]:
            complete[seq] = now + self.cfg.forward_latency
        else:
            complete[seq] = now + self.latency(uop.addr)
            self.violated[seq] = self.trace[store].pc
            self._squash_younger(seq)
            self._flush(seq, complete[seq]
                        + self.cfg.mem_violation_penalty)

    def _flush(self, seq, resume):
        """Nothing younger than ``seq`` allocates before ``resume``."""
        self.flush_at[seq] = max(self.flush_at[seq] or 0, resume)
        self.resume = max(self.resume, resume)

    def _squash_younger(self, seq):
        for young in range(seq + 1, self.next):
            for key in TIMESTAMPS:
                self.times[key][young] = None
            self.head_distance[young] = self.flush_at[young] = None
            self.violated.pop(young, None)
        self.rob = [s for s in self.rob if s <= seq]
        self.iq = [s for s in self.iq if s <= seq]
        self.holds = [hold for hold in self.holds if hold[2] <= seq]
        if self.pending is not None and self.pending > seq:
            self.pending = None
        self.next = seq + 1
        self.resume = max(t or 0 for t in self.flush_at[:seq + 1])


def run_oracle(trace, config, *, latency, bubbles, mispredicts,
               predictions=None, max_cycles=1_000_000):
    """Time ``trace`` on ``config`` cycle by cycle.

    ``latency(addr)`` is a load's fixed memory latency;
    ``bubbles[i]`` and ``mispredicts[i]`` are op i's fetch bubbles and
    branch mispredict flag; ``predictions`` maps a sequence number to
    the :class:`~repro.pipeline.vp_interface.Prediction` used for it.
    Returns the per-op ``alloc``/``ready``/``issue``/``complete``/
    ``retire`` lists, ``cycles`` (the last retirement) and the per-op
    ``stalls_retirement`` flag: completed within ``retire_width`` of the
    ROB head, and retired the cycle after completing.
    """
    core = _Core(trace, config, latency, bubbles, mispredicts,
                 predictions or {})
    retire, complete = core.times["retire"], core.times["complete"]
    now = 0
    while trace and retire[-1] is None:
        assert now <= max_cycles, f"oracle still running at cycle {now}"
        core.retire(now)
        core.complete(now)
        core.issue(now)
        core.allocate(now)
        now += 1
    out = dict(core.times)
    out["cycles"] = retire[-1] if trace else 0
    out["stalls_retirement"] = [
        core.head_distance[seq] < config.retire_width
        and retire[seq] == complete[seq] + 1 for seq in range(len(trace))]
    return out
