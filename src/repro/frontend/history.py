"""Global branch history and incremental folded-history registers.

TAGE indexes its tagged tables with a hash of the PC and a *folded*
global history: the (possibly very long) history bitstring compressed
to the table's index width by XOR-folding.  Recomputing the fold on
every lookup is O(history length); real hardware — and this model —
maintains each fold incrementally as a circular shift register updated
with the bit entering and the bit leaving the history.
"""

from __future__ import annotations

from repro.errors import ConfigError


class FoldedHistory:
    """One incrementally maintained XOR-fold of the global history.

    Parameters
    ----------
    history_length:
        Number of history bits folded.
    folded_width:
        Output width in bits (table index or tag width).
    """

    __slots__ = ("history_length", "folded_width", "value")

    def __init__(self, history_length: int, folded_width: int) -> None:
        if history_length <= 0 or folded_width <= 0:
            raise ConfigError("lengths must be positive")
        self.history_length = history_length
        self.folded_width = folded_width
        self.value = 0


class GlobalHistory:
    """Global branch-outcome history shared by TAGE, ITTAGE, and the
    context value predictor.

    Keeps the full history as an integer bitstring (newest bit is bit
    0) plus one folded register per distinct (length, width) view.
    """

    __slots__ = ("max_length", "bits", "_registers", "_groups",
                 "_max_mask")

    def __init__(self, max_length: int = 256) -> None:
        self.max_length = max_length
        self.bits = 0
        # (history_length, folded_width) -> its one shared register.
        self._registers = {}
        # One (outgoing-bit position, fold params) pair per distinct
        # history length, so push() extracts each outgoing bit once.
        self._groups = {}
        self._max_mask = (1 << max_length) - 1

    def register_fold(self, history_length: int,
                      folded_width: int) -> FoldedHistory:
        """The register folding ``history_length`` bits to
        ``folded_width``; callers asking for the same view share it."""
        if history_length > self.max_length:
            raise ValueError(
                f"history_length {history_length} exceeds max "
                f"{self.max_length}")
        key = (history_length, folded_width)
        fold = self._registers.get(key)
        if fold is None:
            fold = self._registers[key] = FoldedHistory(*key)
            group = self._groups.setdefault(
                history_length, (history_length - 1, []))
            # The outgoing bit re-enters the fold at length % width.
            group[1].append((fold, 1 << (history_length % folded_width),
                             folded_width, (1 << folded_width) - 1))
        return fold

    def push(self, outcome: bool) -> None:
        """Record a branch outcome (True = taken)."""
        new_bit = 1 if outcome else 0
        bits = self.bits
        # Each fold is a circular shift register: shift in the new bit,
        # XOR out the bit leaving its window, wrap the carry to bit 0.
        for out_pos, folds in self._groups.values():
            if (bits >> out_pos) & 1:
                for fold, out_bit, width, mask in folds:
                    value = ((fold.value << 1) | new_bit) ^ out_bit
                    fold.value = (value ^ (value >> width)) & mask
            else:
                for fold, _out_bit, width, mask in folds:
                    value = (fold.value << 1) | new_bit
                    fold.value = (value ^ (value >> width)) & mask
        self.bits = ((bits << 1) | new_bit) & self._max_mask

    def recent(self, n: int) -> int:
        """The most recent ``n`` outcomes as an integer (bit 0 = newest).

        This is the 32-bit context the paper's Value Table uses
        (§IV-C: "the branch history is the outcome of the last 32
        branches").
        """
        return self.bits & ((1 << n) - 1)

    def snapshot(self) -> int:
        return self.bits

    def direct_fold(self, history_length: int, folded_width: int) -> int:
        """Reference (non-incremental) fold, used by tests to validate
        the incremental registers."""
        bits = self.bits & ((1 << history_length) - 1)
        folded = 0
        mask = (1 << folded_width) - 1
        while bits:
            folded ^= bits & mask
            bits >>= folded_width
        return folded
