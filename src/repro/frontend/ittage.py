"""ITTAGE-style indirect branch target predictor.

A scaled-down version of Seznec's ITTAGE: a PC-indexed base target
table plus tagged tables indexed by PC ⊕ folded global history that
store full targets with a 2-bit hysteresis counter.  Longest matching
component provides the target prediction.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.frontend.history import GlobalHistory


class Ittage:
    """Indirect target predictor sharing the TAGE global history.

    Its tagged tables and their folds are built on the first indirect
    jump, so a run without one costs ITTAGE nothing per branch.  A fold
    registered then starts from the current history and so matches one
    that had been kept since the first branch.
    """

    def __init__(self, history: GlobalHistory,
                 history_lengths: List[int] = (8, 32, 96),
                 log_table_size: int = 8, tag_bits: int = 9) -> None:
        for length in history_lengths:
            if length > history.max_length:
                raise ConfigError(
                    f"history_length {length} exceeds max "
                    f"{history.max_length}")
        self.history = history
        self.history_lengths = tuple(history_lengths)
        self.log_table_size = log_table_size
        self.tag_bits = tag_bits
        self._mask = (1 << log_table_size) - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.base = {}  # pc -> target (unbounded dict models a big table)
        # Per table, shortest history first: (index fold, tag fold,
        # tags, targets, confidences); None until the first indirect
        # jump.
        self.tables = None
        self.lookups = 0
        self.mispredicts = 0

    def _build_tables(self) -> None:
        history = self.history
        size = 1 << self.log_table_size
        self.tables = [
            (history.register_fold(length, self.log_table_size),
             history.register_fold(length, self.tag_bits),
             [-1] * size, [0] * size, [0] * size)
            for length in self.history_lengths
        ]

    def _index(self, pc: int, fold) -> int:
        return (pc ^ (pc >> self.log_table_size) ^ fold.value) & self._mask

    def _tag(self, pc: int, fold) -> int:
        return (pc ^ (pc >> 3) ^ fold.value) & self._tag_mask

    def predict(self, pc: int) -> int:
        """Predicted target (0 when the predictor has nothing)."""
        for index_fold, tag_fold, tags, targets, _conf in \
                reversed(self.tables or ()):
            idx = self._index(pc, index_fold)
            if tags[idx] == self._tag(pc, tag_fold):
                return targets[idx]
        return self.base.get(pc, 0)

    def predict_and_train(self, pc: int, target: int) -> bool:
        """Predict, then learn the true target.  Returns correctness.

        The caller is responsible for pushing the control-flow outcome
        into the shared global history (the TAGE wrapper does this so
        history is pushed exactly once per control op).
        """
        if self.tables is None:
            self._build_tables()
        self.lookups += 1
        predicted = self.predict(pc)
        correct = predicted == target
        if not correct:
            self.mispredicts += 1
        self._train(pc, target, correct)
        return correct

    def _train(self, pc: int, target: int, correct: bool) -> None:
        matched = False
        for index_fold, tag_fold, tags, targets, confidence in \
                reversed(self.tables):
            idx = self._index(pc, index_fold)
            if tags[idx] == self._tag(pc, tag_fold):
                matched = True
                if targets[idx] == target:
                    confidence[idx] = min(confidence[idx] + 1, 3)
                elif confidence[idx] > 0:
                    confidence[idx] -= 1
                else:
                    targets[idx] = target
                break
        self.base[pc] = target
        if not correct and not matched:
            # Allocate in the shortest-history table whose slot is weak.
            for index_fold, tag_fold, tags, targets, confidence in \
                    self.tables:
                idx = self._index(pc, index_fold)
                if confidence[idx] == 0:
                    tags[idx] = self._tag(pc, tag_fold)
                    targets[idx] = target
                    confidence[idx] = 1
                    break
