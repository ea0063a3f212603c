"""Stride value predictor (Gabbay, Technion TR 1080, 1996).

Per-PC entry holding the last value, the current stride, and a
confidence counter that rises while the stride repeats.  Predicts
``last_value + stride``.  The paper reports (§VI-B) that a stride
component adds little on top of the other predictors; Figure 10/11
therefore omit it, but it is implemented here both as a standalone
baseline and as the E-Stride component inside EVES.
"""

from __future__ import annotations

from typing import Optional

from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import EngineContext, Prediction, ValuePredictor
from repro.predictors.common import TaggedTable

VALUE_MASK = (1 << 64) - 1

#: tag(11) + value(64) + stride(16) + confidence(3) + useful(2)
ENTRY_BITS = 11 + 64 + 16 + 3 + 2


class StridePredictor(ValuePredictor):
    """Classic per-PC stride value prediction."""

    name = "stride"
    needs_criticality = False  # never reads the ROB/L1 ctx fields

    def __init__(self, entries: int = 256, conf_threshold: int = 6,
                 loads_only: bool = True) -> None:
        self.table = TaggedTable(entries)
        self.conf_threshold = conf_threshold
        self.loads_only = loads_only
        #: In-flight prediction distance: consecutive dynamic instances
        #: in the window each advance by one stride.  The simple model
        #: predicts one instance at a time (distance 1).

    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        if self.loads_only and uop.op != opcodes.LOAD:
            return None
        if uop.dest is None:
            return None
        table = self.table
        slot = table.find(uop.pc)
        if slot >= 0 and table.conf[slot] >= self.conf_threshold:
            predicted = (table.value[slot] + table.extra[slot]) & VALUE_MASK
            return Prediction(predicted, None, "stride")
        return None

    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        if self.loads_only and uop.op != opcodes.LOAD:
            return
        if uop.dest is None:
            return
        table = self.table
        slot = table.find(uop.pc)
        if slot < 0:
            table.allocate(uop.pc, uop.value)
            return
        new_stride = (uop.value - table.value[slot]) & VALUE_MASK
        # Interpret strides as signed 16-bit (hardware stride fields are
        # narrow); anything wider is treated as a non-stride.
        if new_stride >= 1 << 15 and new_stride < VALUE_MASK - (1 << 15):
            table.conf[slot] = 0
            table.extra[slot] = 0
        elif new_stride == table.extra[slot]:
            table.conf[slot] = min(table.conf[slot] + 1, 7)
            table.useful[slot] = min(table.useful[slot] + 1, 3)
        else:
            table.extra[slot] = new_stride
            table.conf[slot] = 0
        table.value[slot] = uop.value

    def storage_bits(self) -> int:
        return self.table.capacity * ENTRY_BITS
