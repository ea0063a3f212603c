"""TAGE conditional branch predictor (Seznec & Michaud, JILP 2006).

The baseline front end in Table II uses TAGE/ITTAGE.  This is a
faithful, moderately sized TAGE: a bimodal base predictor plus ``N``
partially tagged tables indexed by hashes of the PC and geometrically
increasing folded global-history lengths.  Standard policies are
implemented: provider/altpred selection, useful-counter management,
the ``use_alt_on_new_alloc`` heuristic, allocation on mispredict with
probabilistic table choice, and periodic useful-bit aging.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.frontend.history import GlobalHistory


class _TaggedTable:
    """One tagged TAGE component, stored as three columns (``tags``,
    ``counters``, ``useful``) indexed by :meth:`index`."""

    __slots__ = ("log_size", "tag_bits", "history_length",
                 "index_fold", "tag_fold", "tag_fold2", "packed",
                 "tags", "counters", "useful", "index_mask", "tag_mask")

    def __init__(self, log_size: int, tag_bits: int, history_length: int,
                 history: GlobalHistory) -> None:
        self.log_size = log_size
        self.tag_bits = tag_bits
        self.history_length = history_length
        self.index_fold = history.register_fold(history_length, log_size)
        self.tag_fold = history.register_fold(history_length, tag_bits)
        self.tag_fold2 = history.register_fold(history_length, tag_bits - 1)
        self.packed = history.packed
        self.index_mask = (1 << log_size) - 1
        self.tag_mask = (1 << tag_bits) - 1
        size = 1 << log_size
        self.tags = [-1] * size
        self.counters = [0] * size  # signed: >=0 predicts taken
        self.useful = [0] * size

    def index(self, pc: int) -> int:
        """The slot ``pc`` maps to under the current history."""
        fold = self.index_fold
        return (pc ^ (pc >> self.log_size)
                ^ (self.packed[fold.group] >> fold.offset)) \
            & self.index_mask

    def tag(self, pc: int) -> int:
        """The partial tag ``pc`` carries under the current history."""
        fold, fold2 = self.tag_fold, self.tag_fold2
        packed = self.packed
        return (pc ^ (packed[fold.group] >> fold.offset)
                ^ ((packed[fold2.group] >> fold2.offset) << 1)) \
            & self.tag_mask


class TageConfig:
    """Geometry of the TAGE predictor."""

    __slots__ = ("num_tables", "min_history", "max_history",
                 "log_table_size", "tag_bits", "log_bimodal_size",
                 "counter_bits", "useful_reset_period")

    def __init__(self, num_tables: int = 5, min_history: int = 4,
                 max_history: int = 128, log_table_size: int = 9,
                 tag_bits: int = 9, log_bimodal_size: int = 12,
                 counter_bits: int = 3,
                 useful_reset_period: int = 1 << 17) -> None:
        if num_tables < 2:
            raise ConfigError("TAGE needs at least two tagged tables")
        self.num_tables = num_tables
        self.min_history = min_history
        self.max_history = max_history
        self.log_table_size = log_table_size
        self.tag_bits = tag_bits
        self.log_bimodal_size = log_bimodal_size
        self.counter_bits = counter_bits
        self.useful_reset_period = useful_reset_period

    def history_lengths(self) -> List[int]:
        """Geometric series of history lengths."""
        n = self.num_tables
        if n == 1:
            return [self.min_history]
        ratio = (self.max_history / self.min_history) ** (1.0 / (n - 1))
        lengths = []
        for i in range(n):
            length = int(round(self.min_history * ratio ** i))
            if lengths and length <= lengths[-1]:
                length = lengths[-1] + 1
            lengths.append(length)
        return lengths


class Tage:
    """TAGE direction predictor with a shared :class:`GlobalHistory`."""

    def __init__(self, config: TageConfig = None,
                 history: GlobalHistory = None, seed: int = 12345) -> None:
        self.config = config or TageConfig()
        self.history = history or GlobalHistory(
            max_length=self.config.max_history)
        lengths = self.config.history_lengths()
        self.tables = [
            _TaggedTable(self.config.log_table_size, self.config.tag_bits,
                         length, self.history)
            for length in lengths
        ]
        # predict_and_train()'s probe constants, longest history first.
        # Every table has the same widths, so its folds sit in the same
        # three packed registers (two when log_table_size == tag_bits)
        # and only their offsets differ.
        self._first = first = self.tables[0]
        self._packed = self.history.packed
        self._fold_groups = (first.index_fold.group, first.tag_fold.group,
                             first.tag_fold2.group)
        self._probe_order = [
            (num, table.tags, table.index_fold.offset,
             table.tag_fold.offset, table.tag_fold2.offset)
            for num, table in reversed(list(enumerate(self.tables)))
        ]
        self._counters = [table.counters for table in self.tables]
        self._useful = [table.useful for table in self.tables]
        self.bimodal = [0] * (1 << self.config.log_bimodal_size)
        self._bimodal_mask = len(self.bimodal) - 1
        self._ctr_max = (1 << (self.config.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (self.config.counter_bits - 1))
        self.use_alt_on_new_alloc = 0  # 4-bit signed heuristic counter
        self._rng_state = seed or 1
        self._branch_count = 0
        self.lookups = 0
        self.mispredicts = 0

    # -- tiny xorshift PRNG: deterministic, independent of `random` ------
    def _rand(self, bound: int) -> int:
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x % bound

    # ------------------------------------------------------------------
    def predict_and_train(self, pc: int, taken: bool) -> bool:
        """Predict, then update with the true outcome and push the
        outcome into the global history.  Returns True when the
        prediction was correct.

        Lookup and update share one pass over the tables: this runs
        once per conditional branch, so the provider/altpred search,
        the counter, useful and ``use_alt_on_new_alloc`` updates and
        the bimodal update are all inline.
        """
        self.lookups += 1
        provider_num = alt_num = -1
        first = self._first
        index_pc = pc ^ (pc >> first.log_size)
        index_mask = first.index_mask
        tag_mask = first.tag_mask
        packed = self._packed
        index_group, tag_group, tag2_group = self._fold_groups
        index_reg = packed[index_group]
        tag_reg = packed[tag_group]
        # The spare bit below each field is 0, so shifting the whole
        # register once equals shifting each field read from it.
        tag2_reg = packed[tag2_group] << 1
        for table_num, tags, index_offset, tag_offset, tag2_offset \
                in self._probe_order:
            idx = (index_pc ^ (index_reg >> index_offset)) & index_mask
            if tags[idx] == (pc ^ (tag_reg >> tag_offset)
                             ^ (tag2_reg >> tag2_offset)) & tag_mask:
                if provider_num < 0:
                    provider_num = table_num
                    provider_idx = idx
                else:
                    alt_num = table_num
                    alt_idx = idx
                    break
        bimodal = self.bimodal
        bim_idx = pc & self._bimodal_mask
        bim_ctr = bimodal[bim_idx]

        if provider_num < 0:
            prediction = bim_ctr >= 0
            allocate = prediction != taken
        else:
            counters = self._counters[provider_num]
            useful_col = self._useful[provider_num]
            counter = counters[provider_idx]
            useful = useful_col[provider_idx]
            prediction = provider_pred = counter >= 0
            alt_pred = bim_ctr >= 0 if alt_num < 0 \
                else self._counters[alt_num][alt_idx] >= 0
            if provider_pred != alt_pred:
                # A newly allocated (weak, never useful) entry may be
                # worse than the alternate prediction.
                if useful == 0 and (counter == 0 or counter == -1):
                    use_alt = self.use_alt_on_new_alloc
                    if use_alt >= 0:
                        prediction = alt_pred
                    if provider_pred == taken:
                        if use_alt > -8:
                            self.use_alt_on_new_alloc = use_alt - 1
                    elif use_alt < 7:
                        self.use_alt_on_new_alloc = use_alt + 1
                # Useful bit: provider was right where altpred was wrong.
                if provider_pred == taken:
                    if useful < 3:
                        useful_col[provider_idx] = useful + 1
                elif useful > 0:
                    useful_col[provider_idx] = useful - 1
            if taken:
                if counter < self._ctr_max:
                    counters[provider_idx] = counter + 1
            elif counter > self._ctr_min:
                counters[provider_idx] = counter - 1
            allocate = provider_pred != taken

        # The bimodal table trains when it provided the prediction or
        # served as altpred.
        if alt_num < 0:
            if taken:
                if bim_ctr < 1:
                    bimodal[bim_idx] = bim_ctr + 1
            elif bim_ctr > -2:
                bimodal[bim_idx] = bim_ctr - 1
        if allocate:
            self._allocate(pc, taken, provider_num)

        correct = prediction == taken
        if not correct:
            self.mispredicts += 1
        self.history.push(taken)
        self._branch_count += 1
        if self._branch_count % self.config.useful_reset_period == 0:
            self._age_useful()
        return correct

    def _allocate(self, pc: int, taken: bool, provider_table: int) -> None:
        """Allocate one entry in a longer-history table on mispredict."""
        longer = self.tables[provider_table + 1:]
        candidates = [table for table in longer
                      if table.useful[table.index(pc)] == 0]
        if not candidates:
            # Decay useful bits on all longer tables (standard policy).
            for table in longer:
                idx = table.index(pc)
                if table.useful[idx] > 0:
                    table.useful[idx] -= 1
            return
        # Prefer shorter histories with probability weighting (2:1).
        table = candidates[0]
        if len(candidates) > 1 and self._rand(3) == 0:
            table = candidates[1]
        idx = table.index(pc)
        table.tags[idx] = table.tag(pc)
        table.counters[idx] = 0 if taken else -1
        table.useful[idx] = 0

    def _age_useful(self) -> None:
        for table in self.tables:
            # In place: _useful and the tables share these lists.
            table.useful[:] = [useful >> 1 for useful in table.useful]

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly (1.0
        before the first)."""
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups
