"""Front-end model: branch prediction, BTB, and instruction cache.

The cycle-level engine consults the front end for two things:

* :meth:`FrontEnd.process_control` — predict and train on every control
  micro-op; a wrong direction or target costs the machine the
  mispredict penalty (Table II: 20 cycles) from the branch's
  *execution*, modelled as a redirect of subsequent allocation.  A
  taken branch or direct jump whose target misses the BTB counts as
  a mispredict and pays that full penalty; an indirect jump's target
  comes from ITTAGE.
* :meth:`FrontEnd.fetch_bubbles` — per-op fetch-line tracking through
  a 64 KB 8-way L1I; a line miss inserts front-end bubbles.

The front end owns the :class:`GlobalHistory` that both TAGE and the
context value predictors read, mirroring the paper's observation that
value prediction and branch prediction consume the same history
(§IV-A2).
"""

from __future__ import annotations

from repro.frontend.history import GlobalHistory
from repro.frontend.ittage import Ittage
from repro.frontend.tage import Tage, TageConfig
from repro.isa import opcodes
from repro.memory.cache import Cache


class FrontEndConfig:
    """Front-end knobs (defaults follow Table II)."""

    __slots__ = ("icache_size", "icache_assoc", "icache_line",
                 "icache_miss_penalty", "btb_entries",
                 "mispredict_penalty", "tage")

    def __init__(self, icache_size: int = 64 * 1024, icache_assoc: int = 8,
                 icache_line: int = 64, icache_miss_penalty: int = 12,
                 btb_entries: int = 4096, mispredict_penalty: int = 20,
                 tage: TageConfig = None) -> None:
        self.icache_size = icache_size
        self.icache_assoc = icache_assoc
        self.icache_line = icache_line
        self.icache_miss_penalty = icache_miss_penalty
        self.btb_entries = btb_entries
        self.mispredict_penalty = mispredict_penalty
        self.tage = tage or TageConfig()


class FrontEnd:
    """Branch predictors + BTB + L1I, shared-history container."""

    def __init__(self, config: FrontEndConfig = None) -> None:
        self.config = config or FrontEndConfig()
        self.history = GlobalHistory(max_length=256)
        self.tage = Tage(self.config.tage, history=self.history)
        self.ittage = Ittage(self.history)
        self.icache = Cache(self.config.icache_size, self.config.icache_assoc,
                            self.config.icache_line, name="L1I")
        self._btb = {}
        self._btb_entries = self.config.btb_entries
        self._last_fetch_line = -1
        self.btb_misses = 0
        self.control_ops = 0
        self.mispredicts = 0

    # ------------------------------------------------------------------
    def process_control(self, pc: int, op: int, taken: bool,
                        target: int) -> bool:
        """Predict + train on a control op; True when fully correct
        (direction and, for taken control flow, target)."""
        self.control_ops += 1
        if op == opcodes.BRANCH:
            direction_ok = self.tage.predict_and_train(pc, taken)
            target_ok = (not taken) or self._btb_lookup(pc, target)
            correct = direction_ok and target_ok
        elif op == opcodes.JUMP:
            # Direct jumps only mispredict on a cold BTB.
            correct = self._btb_lookup(pc, target)
            self.history.push(True)
        elif op == opcodes.IJUMP:
            correct = self.ittage.predict_and_train(pc, target)
            self._btb_lookup(pc, target)
            self.history.push(True)
        else:
            raise ValueError(f"not a control op: {opcodes.op_name(op)}")
        if not correct:
            self.mispredicts += 1
        return correct

    def _btb_lookup(self, pc: int, target: int) -> bool:
        hit = self._btb.get(pc) == target
        if not hit:
            self.btb_misses += 1
            if len(self._btb) >= self._btb_entries:
                self._btb.pop(next(iter(self._btb)))
            self._btb[pc] = target
        return hit

    # ------------------------------------------------------------------
    def fetch_bubbles(self, pc: int) -> int:
        """Front-end bubble cycles charged when fetch crosses into a new
        I-cache line; 0 when staying within the current line or on a
        line hit."""
        line = pc // self.config.icache_line
        if line == self._last_fetch_line:
            return 0
        self._last_fetch_line = line
        if self.icache.lookup(pc):
            return 0
        return self.config.icache_miss_penalty

    @property
    def mispredict_penalty(self) -> int:
        """Cycles a mispredicted control op costs (Table II: 20)."""
        return self.config.mispredict_penalty

    @property
    def mispredict_rate(self) -> float:
        """Fraction of control ops mispredicted (0.0 before the
        first)."""
        if not self.control_ops:
            return 0.0
        return self.mispredicts / self.control_ops

    # ------------------------------------------------------------------
    def publish_stats(self, group) -> None:
        """Register this front end's statistics into a telemetry
        :class:`~repro.telemetry.stats.StatGroup`."""
        group.counter("branch_accuracy",
                      "fraction of control ops fully predicted",
                      1.0 - self.mispredict_rate)
        group.counter("control_ops", "control micro-ops seen",
                      self.control_ops)
        group.counter("mispredicts", "direction or target mispredicts",
                      self.mispredicts)
        group.counter("btb_misses", "BTB target misses", self.btb_misses)
        group.counter("icache_misses", "L1I line misses",
                      self.icache.misses)
        group.counter("icache_hits", "L1I line hits", self.icache.hits)
