"""Last Value Predictor (Lipasti, Wilkerson & Shen, ASPLOS '96).

Per-PC tagged table holding the last committed value and a
probabilistically incremented confidence counter (the standard
forward-probabilistic-counter scheme: confidence rises with
probability 1/16 per repeat, so only long runs of identical values
reach the prediction threshold — keeping accuracy in the >99% regime
value prediction requires).
"""

from __future__ import annotations

from typing import Optional

from repro.isa import opcodes
from repro.isa.instruction import MicroOp
from repro.pipeline.vp_interface import EngineContext, Prediction, ValuePredictor
from repro.predictors.common import TaggedTable, XorShift

#: Bits per entry: tag(11) + value(64) + confidence(3) + useful(2).
ENTRY_BITS = 11 + 64 + 3 + 2


class LastValuePredictor(ValuePredictor):
    """Classic LVP.

    Parameters
    ----------
    entries: table capacity.
    conf_threshold: confidence needed before a prediction is used.
    conf_prob: probability (out of 16) of a confidence increment on a
        value repeat.
    loads_only: predict only loads (the configuration every experiment
        in the paper uses).
    """

    name = "lvp"
    needs_criticality = False  # never reads the ROB/L1 ctx fields

    def __init__(self, entries: int = 256, conf_threshold: int = 7,
                 conf_prob: int = 1, loads_only: bool = True) -> None:
        self.table = TaggedTable(entries)
        self.conf_threshold = conf_threshold
        self.conf_prob = conf_prob
        self.loads_only = loads_only
        self._rng = XorShift()

    def predict(self, uop: MicroOp, ctx: EngineContext) -> Optional[Prediction]:
        if self.loads_only and uop.op != opcodes.LOAD:
            return None
        if uop.dest is None:
            return None
        table = self.table
        slot = table.find(uop.pc)
        if slot >= 0 and table.conf[slot] >= self.conf_threshold:
            return Prediction(table.value[slot], None, "lv")
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
        if table.value[slot] == uop.value:
            if self._rng.below(self.conf_prob, 16):
                table.conf[slot] = min(table.conf[slot] + 1, 7)
            table.useful[slot] = min(table.useful[slot] + 1, 3)
        else:
            table.value[slot] = uop.value
            table.conf[slot] = 0
            table.useful[slot] = 0

    def storage_bits(self) -> int:
        return self.table.capacity * ENTRY_BITS
