"""Finite Context Method predictor (Sazeides & Smith, MICRO '97).

Two-level scheme: a first-level table maps the PC to a hash of the
last ``order`` values the instruction produced (the *value history*);
a second-level table maps that hash to the next value with confidence.
Predicts when the value pattern repeats.
"""

from __future__ import annotations

from typing import Optional

from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import EngineContext, Prediction, ValuePredictor
from repro.predictors.common import TaggedTable

VALUE_MASK = (1 << 64) - 1

#: Level-1: tag(11) + history hash(16); Level-2: tag(11) + value(64) +
#: confidence(3) + useful(2).
L1_ENTRY_BITS = 11 + 16
L2_ENTRY_BITS = 11 + 64 + 3 + 2


def _mix(history_hash: int, value: int) -> int:
    """Slide the new value into the level-1 history hash.

    A 15-bit hash of the last three values: each value contributes a
    5-bit fold, and three shifts push the oldest fold out of the mask —
    a *windowed* hash, so the hash of a periodic value stream is itself
    periodic (an accumulating hash would never re-converge)."""
    folded = value ^ (value >> 5) ^ (value >> 11) ^ (value >> 23) \
        ^ (value >> 37) ^ (value >> 53)
    return ((history_hash << 5) ^ (folded & 0x1F)) & 0x7FFF


class FcmPredictor(ValuePredictor):
    """Order-``order`` FCM with hashed value histories."""

    name = "fcm"
    needs_criticality = False  # never reads the ROB/L1 ctx fields

    def __init__(self, l1_entries: int = 256, l2_entries: int = 512,
                 conf_threshold: int = 5, loads_only: bool = True) -> None:
        self.l1 = TaggedTable(l1_entries)
        self.l2 = TaggedTable(l2_entries)
        self.conf_threshold = conf_threshold
        self.loads_only = loads_only

    def _wants(self, uop: MicroOp) -> bool:
        if uop.dest is None:
            return False
        return not (self.loads_only and uop.op != opcodes.LOAD)

    def _l2_key(self, pc: int, history_hash: int) -> int:
        return (history_hash * 2654435761 ^ pc) & 0x3FFFFFFF

    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        if not self._wants(uop):
            return None
        l1_slot = self.l1.find(uop.pc)
        if l1_slot < 0:
            return None
        l2 = self.l2
        l2_slot = l2.find(self._l2_key(uop.pc, self.l1.extra[l1_slot]))
        if l2_slot >= 0 and l2.conf[l2_slot] >= self.conf_threshold:
            return Prediction(l2.value[l2_slot], None, "fcm")
        return None

    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        if not self._wants(uop):
            return
        l1 = self.l1
        l1_slot = l1.find(uop.pc)
        if l1_slot < 0:
            l1_slot = l1.allocate(uop.pc)
            if l1_slot >= 0:
                l1.extra[l1_slot] = _mix(0, uop.value)
            return
        history_hash = l1.extra[l1_slot]
        l2 = self.l2
        key = self._l2_key(uop.pc, history_hash)
        l2_slot = l2.find(key)
        if l2_slot < 0:
            l2.allocate(key, uop.value)
        elif l2.value[l2_slot] == uop.value:
            l2.conf[l2_slot] = min(l2.conf[l2_slot] + 1, 7)
            l2.useful[l2_slot] = min(l2.useful[l2_slot] + 1, 3)
        else:
            l2.value[l2_slot] = uop.value
            l2.conf[l2_slot] = 0
            l2.useful[l2_slot] = max(l2.useful[l2_slot] - 1, 0)
        l1.extra[l1_slot] = _mix(history_hash, uop.value)

    def storage_bits(self) -> int:
        return (self.l1.capacity * L1_ENTRY_BITS
                + self.l2.capacity * L2_ENTRY_BITS)
