"""EVES predictor (Seznec, CVP-1 2018): E-VTAGE + E-Stride.

EVES refines D-VTAGE with smarter allocation and confidence policies:

* **E-Stride** — a per-PC stride component that only commits to a
  prediction after the stride has repeated many times, with the
  increment probability scaled by expected benefit (long-latency
  instructions are favoured).
* **E-VTAGE** — a VTAGE whose allocation is gated: entries are only
  allocated when the op was mispredicted or unpredicted, and utility
  management prefers keeping entries that keep predicting correctly.

The chooser prefers E-Stride when both components are confident (a
confident stride subsumes a constant: stride 0).
"""

from __future__ import annotations

from typing import Optional

from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import EngineContext, Prediction, ValuePredictor
from repro.predictors.common import (HASH_MUL, TAG_MASK, TAG_SHIFT,
                                     TaggedTable, XorShift)
from repro.predictors.vtage import VtagePredictor

VALUE_MASK = (1 << 64) - 1

#: E-Stride entry: tag(11) + value(64) + stride(16) + conf(4) + useful(2).
ESTRIDE_ENTRY_BITS = 11 + 64 + 16 + 4 + 2


class EvesPredictor(ValuePredictor):
    """EVES: E-Stride in front of an E-VTAGE.

    :meth:`predict` keeps the E-Stride slot it probed (and E-VTAGE its
    own probe) for the same op's :meth:`train_execute`.
    """

    name = "eves"

    def __init__(self, stride_entries: int = 128,
                 vtage_base_entries: int = 128,
                 vtage_tagged_entries: int = 64,
                 history_lengths=(2, 4, 8, 16, 32, 64),
                 conf_threshold: int = 7,
                 loads_only: bool = True) -> None:
        self.estride = TaggedTable(stride_entries)
        self.evtage = VtagePredictor(
            base_entries=vtage_base_entries,
            tagged_entries=vtage_tagged_entries,
            history_lengths=history_lengths,
            conf_threshold=conf_threshold,
            loads_only=loads_only)
        self.conf_threshold = conf_threshold
        self.loads_only = loads_only
        self._rng = XorShift(0xE7E5)
        # (uop, seq, E-Stride slot) of the last predicted op, until its
        # train_execute consumes it.
        self._probed: Optional[tuple] = None

    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        if uop.dest is None or (self.loads_only and uop.op != opcodes.LOAD):
            return None
        estride = self.estride
        # TaggedTable.find, inlined.
        mixed = (uop.pc * HASH_MUL) & 0xFFFFFFFF
        tag = (mixed >> TAG_SHIFT) & TAG_MASK
        slot = (mixed % estride.sets) << 1
        tags = estride.tag
        if tags[slot] != tag:
            slot = slot + 1 if tags[slot + 1] == tag else -1
        self._probed = (uop, ctx.seq, slot)
        if slot >= 0 and estride.conf[slot] >= self.conf_threshold + 2:
            return Prediction(
                (estride.value[slot] + estride.extra[slot]) & VALUE_MASK,
                None, "estride")
        value = self.evtage._probe(uop, ctx)[5]
        if value is None:
            return None
        return Prediction(value, None, "evtage")

    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction: Optional[Prediction],
                      correct: bool) -> None:
        if uop.dest is None or (self.loads_only and uop.op != opcodes.LOAD):
            return
        estride = self.estride
        probed = self._probed
        self._probed = None
        if probed is not None and probed[0] is uop and probed[1] == ctx.seq:
            slot = probed[2]
        else:
            slot = estride.find(uop.pc)
        value = uop.value
        if slot < 0:
            # E-Stride allocation is gated on long-latency ops (the
            # benefit-driven policy): always allocate loads that left
            # L1, probabilistically allocate the rest.
            if not ctx.l1_hit or self._rng.below(1, 4):
                estride.allocate(uop.pc, value)
        else:
            new_stride = (value - estride.value[slot]) & VALUE_MASK
            narrow = new_stride < (1 << 15) or \
                new_stride > VALUE_MASK - (1 << 15)
            if narrow and new_stride == estride.extra[slot]:
                # Benefit-scaled confidence ramp: faster for misses.
                num = 4 if not ctx.l1_hit else 1
                if self._rng.below(num, 8) and estride.conf[slot] < 15:
                    estride.conf[slot] += 1
                if estride.useful[slot] < 3:
                    estride.useful[slot] += 1
            else:
                estride.extra[slot] = new_stride if narrow else 0
                estride.conf[slot] = 0
                if estride.useful[slot]:
                    estride.useful[slot] -= 1
            estride.value[slot] = value
        self.evtage.train_execute(uop, ctx, used_prediction, correct)

    def storage_bits(self) -> int:
        return (self.estride.capacity * ESTRIDE_ENTRY_BITS
                + self.evtage.storage_bits())

    def stats(self) -> dict:
        return {"estride_capacity": self.estride.capacity}
