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


class _TaggedEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self) -> None:
        self.tag = -1
        self.counter = 0  # signed: >=0 predicts taken
        self.useful = 0


class _TaggedTable:
    """One tagged TAGE component."""

    __slots__ = ("log_size", "tag_bits", "history_length",
                 "index_fold", "tag_fold", "tag_fold2", "entries",
                 "index_mask", "tag_mask")

    def __init__(self, log_size: int, tag_bits: int, history_length: int,
                 history: GlobalHistory) -> None:
        self.log_size = log_size
        self.tag_bits = tag_bits
        self.history_length = history_length
        self.index_fold = history.register_fold(history_length, log_size)
        self.tag_fold = history.register_fold(history_length, tag_bits)
        self.tag_fold2 = history.register_fold(history_length, tag_bits - 1)
        self.index_mask = (1 << log_size) - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.entries = [_TaggedEntry() for _ in range(1 << log_size)]

    def index(self, pc: int) -> int:
        return (pc ^ (pc >> self.log_size) ^ self.index_fold.value) \
            & self.index_mask

    def tag(self, pc: int) -> int:
        return (pc ^ self.tag_fold.value ^ (self.tag_fold2.value << 1)) \
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
        # predict_and_train()'s probe constants, longest history first:
        # one tuple unpack per table instead of attribute reads.
        self._probe_order = [
            (num, table.entries, table.log_size, table.index_fold,
             table.index_mask, table.tag_fold, table.tag_fold2,
             table.tag_mask)
            for num, table in reversed(list(enumerate(self.tables)))
        ]
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
        provider = alt = None
        provider_num = -1
        for table_num, entries, log_size, index_fold, index_mask, \
                tag_fold, tag_fold2, tag_mask in self._probe_order:
            entry = entries[(pc ^ (pc >> log_size) ^ index_fold.value)
                            & index_mask]
            if entry.tag == (pc ^ tag_fold.value
                             ^ (tag_fold2.value << 1)) & tag_mask:
                if provider is None:
                    provider = entry
                    provider_num = table_num
                else:
                    alt = entry
                    break
        bimodal = self.bimodal
        bim_idx = pc & self._bimodal_mask
        bim_ctr = bimodal[bim_idx]

        if provider is None:
            prediction = bim_ctr >= 0
            allocate = prediction != taken
        else:
            counter = provider.counter
            useful = provider.useful
            prediction = provider_pred = counter >= 0
            alt_pred = bim_ctr >= 0 if alt is None else alt.counter >= 0
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
                        provider.useful = useful + 1
                elif useful > 0:
                    provider.useful = useful - 1
            if taken:
                if counter < self._ctr_max:
                    provider.counter = counter + 1
            elif counter > self._ctr_min:
                provider.counter = counter - 1
            allocate = provider_pred != taken

        # The bimodal table trains when it provided the prediction or
        # served as altpred.
        if alt is None:
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
        candidates = [
            t for t in range(provider_table + 1, len(self.tables))
            if self.tables[t].entries[self.tables[t].index(pc)].useful == 0
        ]
        if not candidates:
            # Decay useful bits on all longer tables (standard policy).
            for t in range(provider_table + 1, len(self.tables)):
                table = self.tables[t]
                entry = table.entries[table.index(pc)]
                if entry.useful > 0:
                    entry.useful -= 1
            return
        # Prefer shorter histories with probability weighting (2:1).
        choice = candidates[0]
        if len(candidates) > 1 and self._rand(3) == 0:
            choice = candidates[1]
        table = self.tables[choice]
        idx = table.index(pc)
        entry = table.entries[idx]
        entry.tag = table.tag(pc)
        entry.counter = 0 if taken else -1
        entry.useful = 0

    def _age_useful(self) -> None:
        for table in self.tables:
            for entry in table.entries:
                entry.useful >>= 1

    @property
    def accuracy(self) -> float:
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups
