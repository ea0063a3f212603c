"""DLVP: load value prediction via path-based address prediction
(Sheikh, Cain & Damodaran, MICRO '17).

Instead of predicting a load's *value*, DLVP predicts its *address* at
fetch — with a Stride Address Predictor (SAP) and a Context Address
Predictor (CAP) — and reads the value out of the data cache early.
The fetched value is then used as a value prediction.

Model note (see DESIGN.md §2): this repo does not maintain a separate
early-read image of the cache; a DLVP prediction is *correct* exactly
when (a) the predicted address matches the load's actual address and
(b) no in-flight store to that address would make the early cache read
stale.  Condition (b) is the "mispredictions due to conflicting
stores" failure mode the DLVP paper is named after, and the thing the
Composite predictor filters.  When either condition fails the model
emits a poisoned value so the engine charges the full mispredict flush.
"""

from __future__ import annotations

from typing import Optional

from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import EngineContext, Prediction, ValuePredictor
from repro.predictors.common import HASH_MUL, TAG_MASK, TAG_SHIFT, TaggedTable

ADDR_MASK = (1 << 48) - 1
_POISON = 0xD1B7_BAD0_DEAD_BEEF

#: SAP entry: tag(11) + last addr(48) + stride(16) + conf(3) + useful(2)
SAP_ENTRY_BITS = 11 + 48 + 16 + 3 + 2
#: CAP entry: tag(11) + addr(48) + conf(3) + useful(2)
CAP_ENTRY_BITS = 11 + 48 + 3 + 2
#: Confidence each address predictor needs before it predicts.
SAP_CONF_THRESHOLD = 4
CAP_CONF_THRESHOLD = 4
#: Branch outcomes hashed into a CAP key.
CAP_HISTORY_MASK = (1 << 16) - 1


class DlvpPredictor(ValuePredictor):
    """DLVP = SAP + CAP feeding early cache reads.

    SAP (the Stride Address Predictor) learns a per-PC address stride;
    CAP (the Context Address Predictor) maps the PC hashed with the
    last 16 branch outcomes to an address.  ``conflict_filter`` enables
    the Composite paper's per-PC filter that stops predicting loads
    observed to conflict with in-flight stores.
    """

    name = "dlvp"
    needs_criticality = False  # never reads the ROB/L1 ctx fields

    def __init__(self, sap_entries: int = 128, cap_entries: int = 128,
                 conflict_filter: bool = False) -> None:
        self.sap = TaggedTable(sap_entries)
        self.cap = TaggedTable(cap_entries)
        self.conflict_filter = conflict_filter
        self._conflicts = {}  # pc -> 2-bit saturating conflict counter
        self.early_reads = 0
        self.conflicting = 0
        # What _probe found for the op it last probed, until that op's
        # train_execute consumes it.
        self._probed: Optional[tuple] = None

    def _probe(self, uop: MicroOp, ctx: EngineContext) -> tuple:
        """Look up the load in SAP and CAP.  Returns and keeps ``(uop,
        seq, history, SAP slot, CAP key, CAP slot)`` (a slot is -1 on
        a miss) for the same op's ``train_execute``."""
        pc = uop.pc
        history = ctx.history
        # The PC hashed with 16 branch outcomes (folding them to 30 bits
        # is the identity).
        key = (pc ^ (pc >> 13)
               ^ ((history & CAP_HISTORY_MASK) * 2654435761)) & 0x3FFFFFFF
        # TaggedTable.find, inlined for both tables.
        mixed = (pc * HASH_MUL) & 0xFFFFFFFF
        tag = (mixed >> TAG_SHIFT) & TAG_MASK
        sap_slot = (mixed % self.sap.sets) << 1
        tags = self.sap.tag
        if tags[sap_slot] != tag:
            sap_slot = sap_slot + 1 if tags[sap_slot + 1] == tag else -1
        mixed = (key * HASH_MUL) & 0xFFFFFFFF
        tag = (mixed >> TAG_SHIFT) & TAG_MASK
        cap_slot = (mixed % self.cap.sets) << 1
        tags = self.cap.tag
        if tags[cap_slot] != tag:
            cap_slot = cap_slot + 1 if tags[cap_slot + 1] == tag else -1
        probed = (uop, ctx.seq, history, sap_slot, key, cap_slot)
        self._probed = probed
        return probed

    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        if uop.op != opcodes.LOAD:
            return None
        if self.conflict_filter and self._conflicts.get(uop.pc, 0) >= 2:
            return None
        probed = self._probe(uop, ctx)
        slot = probed[3]
        sap = self.sap
        if slot >= 0 and sap.conf[slot] >= SAP_CONF_THRESHOLD:
            predicted_addr = (sap.value[slot] + sap.extra[slot]) & ADDR_MASK
            source = "sap"
        else:
            slot = probed[5]
            if slot < 0 or self.cap.conf[slot] < CAP_CONF_THRESHOLD:
                return None
            predicted_addr = self.cap.value[slot]
            source = "cap"
        # The front-end early read can only source near levels: a line
        # that would miss to the LLC or DRAM has no value available by
        # rename time, so no prediction is made.
        if ctx.probe_level(predicted_addr) not in ("L1", "L2"):
            return None
        self.early_reads += 1
        conflict = ctx.store_inflight_to_addr(predicted_addr) is not None
        if predicted_addr == uop.addr and not conflict:
            # The early cache read returns the architectural value.
            return Prediction(uop.value, None, source)
        if conflict:
            self.conflicting += 1
        return Prediction(uop.value ^ _POISON, None, source)

    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        if uop.op != opcodes.LOAD:
            return
        probed = self._probed
        if probed is None or probed[0] is not uop \
                or probed[1] != ctx.seq or probed[2] != ctx.history:
            probed = self._probe(uop, ctx)
        self._probed = None
        addr = uop.addr
        # SAP: a repeated stride (0 included) builds confidence.
        sap = self.sap
        slot = probed[3]
        if slot < 0:
            sap.allocate(uop.pc, addr)
        else:
            stride = (addr - sap.value[slot]) & ADDR_MASK
            if stride == sap.extra[slot]:
                if sap.conf[slot] < 7:
                    sap.conf[slot] += 1
                if sap.useful[slot] < 3:
                    sap.useful[slot] += 1
            else:
                sap.extra[slot] = stride
                sap.conf[slot] = 0
            sap.value[slot] = addr
        # CAP: the same address in the same context builds confidence.
        cap = self.cap
        slot = probed[5]
        if slot < 0:
            cap.allocate(probed[4], addr)
        elif cap.value[slot] == addr:
            if cap.conf[slot] < 7:
                cap.conf[slot] += 1
            if cap.useful[slot] < 3:
                cap.useful[slot] += 1
        else:
            cap.value[slot] = addr
            cap.conf[slot] = 0
        if used_prediction is not None:
            counter = self._conflicts.get(uop.pc, 0)
            if not correct:
                self._conflicts[uop.pc] = min(counter + 1, 3)
            elif counter:
                self._conflicts[uop.pc] = counter - 1

    def storage_bits(self) -> int:
        bits = (self.sap.capacity * SAP_ENTRY_BITS
                + self.cap.capacity * CAP_ENTRY_BITS)
        if self.conflict_filter:
            bits += 2 * max(len(self._conflicts), 64)
        return bits

    def stats(self) -> dict:
        return {"early_reads": self.early_reads,
                "conflicting_reads": self.conflicting}
