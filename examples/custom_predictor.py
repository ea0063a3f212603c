#!/usr/bin/env python3
"""Plugging a custom value predictor into the engine.

The engine hosts any object implementing the
:class:`repro.pipeline.ValuePredictor` contract.  This example builds a
deliberately naive "last value, loads only, fixed threshold" predictor
from scratch, runs it against FVP on the same trace, and shows why
confidence discipline matters: the naive predictor's mispredictions
cost 20-cycle flushes that eat its gains.

Run:  python examples/custom_predictor.py
"""

from typing import Optional

from repro import CoreConfig, FVP, build_workload, simulate
from repro.isa import MicroOp, opcodes
from repro.pipeline import EngineContext, Prediction, ValuePredictor


class NaiveLastValue(ValuePredictor):
    """Predict after `threshold` consecutive repeats — no probabilistic
    confidence, no utility management, unbounded table."""

    name = "naive-lv"

    def __init__(self, threshold: int = 2) -> None:
        self.threshold = threshold
        self.table = {}  # pc -> [value, repeat_count]

    def predict(self, uop: MicroOp,
                ctx: EngineContext) -> Optional[Prediction]:
        if uop.op != opcodes.LOAD:
            return None
        entry = self.table.get(uop.pc)
        if entry is not None and entry[1] >= self.threshold:
            return Prediction(entry[0], source="naive")
        return None

    def train_execute(self, uop: MicroOp, ctx: EngineContext,
                      used_prediction, correct: bool) -> None:
        if uop.op != opcodes.LOAD:
            return
        entry = self.table.get(uop.pc)
        if entry is None:
            self.table[uop.pc] = [uop.value, 0]
        elif entry[0] == uop.value:
            entry[1] += 1
        else:
            entry[0] = uop.value
            entry[1] = 0

    def storage_bits(self) -> int:
        return len(self.table) * (64 + 8)


def main() -> None:
    trace = build_workload("perlbench", length=80_000)
    config = CoreConfig.skylake()
    warmup = 30_000

    baseline = simulate(trace, config=config, warmup=warmup)
    rows = [("baseline", baseline)]
    for predictor in (NaiveLastValue(threshold=2),
                      NaiveLastValue(threshold=16),
                      FVP()):
        result = simulate(trace, config=config, predictor=predictor,
                          warmup=warmup)
        rows.append((predictor.name + f"@{getattr(predictor, 'threshold', '')}"
                     if isinstance(predictor, NaiveLastValue)
                     else predictor.name, result))

    print(f"{'predictor':<14} {'IPC':>7} {'speedup':>9} {'coverage':>9} "
          f"{'accuracy':>9} {'flushes':>8}")
    for name, result in rows:
        speedup = result.ipc / baseline.ipc - 1
        print(f"{name:<14} {result.ipc:7.3f} {speedup:+9.2%} "
              f"{result.coverage:9.1%} {result.accuracy:9.2%} "
              f"{result.vp_flushes:8d}")

    print()
    print("Note how the low-threshold predictor buys coverage at the")
    print("price of flushes, while FVP predicts less and gains more —")
    print("the paper's thesis in one table.")


if __name__ == "__main__":
    main()
