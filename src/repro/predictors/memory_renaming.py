"""Memory Renaming (Tyson & Austin, IJPP 1999).

MR learns store→load PC pairs from the LSQ forwarding network (the
``on_forwarding`` tap).  Once a pair is confident, an allocating store
whose PC is in the cache records its store-queue ID in the Value File;
a later allocating load associated with that store predicts its value
directly from the store's data — before the load's address is even
computed.  A wrong association flushes like any value misprediction.

This is both a standalone baseline (the MR-8KB / MR-1KB bars of
Figures 10-11) and the memory-dependence component inside FVP
(§IV-D), which instantiates it with the paper's tiny 136-entry
Store/Load cache and 40-entry Value File.
"""

from __future__ import annotations

from typing import Optional

from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import EngineContext, Prediction, ValuePredictor
from repro.predictors.common import TaggedTable

#: Store/Load cache entry: tag(11) + confidence(3) + LRU(2) — Table I.
SL_ENTRY_BITS = 11 + 3 + 2
#: Value File entry: data(64) + store id(6) — Table I (349 rounded).
VF_ENTRY_BITS = 64 + 6


class MemoryRenaming(ValuePredictor):
    """Store→load association predictor.

    Parameters
    ----------
    sl_entries:
        Store/Load PC cache capacity (loads and stores share it, as in
        Tyson & Austin).  The paper's FVP component uses 136.
    vf_entries:
        Value File capacity (in-flight renamed associations).  FVP
        uses 40.
    conf_threshold:
        Forwarding observations needed before renaming engages.
    """

    name = "mr"
    needs_criticality = False  # never reads the ROB/L1 ctx fields

    def __init__(self, sl_entries: int = 136, vf_entries: int = 40,
                 conf_threshold: int = 4) -> None:
        # load PC -> associated store PC (with confidence).
        self.assoc = TaggedTable(sl_entries)
        self.vf_entries = vf_entries
        self.conf_threshold = conf_threshold
        #: Value File: load-PC keyed view of in-flight store data.
        #: {load_pc: (store_seq, store_value)} — bounded FIFO.
        self._value_file = {}
        self.renames = 0
        self.associations_learned = 0

    # ------------------------------------------------------------------
    @classmethod
    def at_budget(cls, kilobytes: int) -> "MemoryRenaming":
        """Size the MR tables to roughly ``kilobytes`` KB (the paper's
        MR-8KB and MR-1KB comparison points).  The Value File holds
        64-bit data and dominates the per-entry cost, so the budget is
        split 1:3 between the Store/Load cache and the Value File —
        mirroring the paper's own FVP proportions (272 B vs 350 B on
        proportionally more VF-heavy scaling)."""
        if kilobytes <= 0:
            raise ValueError("budget must be positive")
        budget_bits = kilobytes * 8192
        sl_entries = (budget_bits // 4) // SL_ENTRY_BITS
        vf_entries = (3 * budget_bits // 4) // VF_ENTRY_BITS
        predictor = cls(sl_entries=sl_entries - sl_entries % 2,
                        vf_entries=vf_entries, conf_threshold=2)
        predictor.name = f"mr-{kilobytes}kb"
        return predictor

    # ------------------------------------------------------------------
    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        if uop.op == opcodes.STORE:
            self._store_allocates(uop, ctx)
            return None
        if uop.op != opcodes.LOAD:
            return None
        assoc = self.assoc
        slot = assoc.find(uop.pc)
        if slot < 0 or assoc.conf[slot] < self.conf_threshold:
            return None
        record = self._value_file.get(uop.pc)
        if record is None:
            return None
        store_seq, store_value = record
        self.renames += 1
        return Prediction(store_value, store_seq, "mr")

    def _store_allocates(self, uop: MicroOp, ctx: EngineContext) -> None:
        """A store with a confident association publishes its SQID (and
        data) into the Value File for its partner load PC."""
        assoc = self.assoc
        slot = assoc.find(uop.pc)
        if slot < 0 or assoc.conf[slot] < self.conf_threshold:
            return
        load_pc = assoc.value[slot]  # partner PC stashed in the value field
        if len(self._value_file) >= self.vf_entries and \
                load_pc not in self._value_file:
            self._value_file.pop(next(iter(self._value_file)))
        self._value_file[load_pc] = (ctx.seq, uop.value)

    # ------------------------------------------------------------------
    def on_forwarding(self, store_pc: int, load_pc: int,
                      store_seq: int) -> None:
        """LSQ observed a forwarding: learn/strengthen both directions
        of the pair (the Store/Load cache holds loads and stores)."""
        assoc = self.assoc
        value, conf, useful = assoc.value, assoc.conf, assoc.useful
        for is_load, pc, partner in ((True, load_pc, store_pc),
                                     (False, store_pc, load_pc)):
            slot = assoc.find(pc)
            if slot < 0:
                if assoc.allocate(pc, partner) >= 0 and is_load:
                    self.associations_learned += 1
            elif value[slot] == partner:
                conf[slot] = min(conf[slot] + 1, 7)
                useful[slot] = min(useful[slot] + 1, 3)
            else:
                value[slot] = partner
                conf[slot] = 0

    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        if used_prediction is not None and used_prediction.source == "mr" \
                and not correct:
            slot = self.assoc.find(uop.pc)
            if slot >= 0:
                self.assoc.conf[slot] = 0

    def storage_bits(self) -> int:
        return (self.assoc.capacity * SL_ENTRY_BITS
                + self.vf_entries * VF_ENTRY_BITS)

    def stats(self) -> dict:
        return {"renames": self.renames,
                "associations_learned": self.associations_learned}
