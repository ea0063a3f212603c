"""Global branch history and incremental folded-history registers.

TAGE indexes its tagged tables with a hash of the PC and a *folded*
global history: the (possibly very long) history bitstring compressed
to the table's index width by XOR-folding.  Recomputing the fold on
every lookup is O(history length); real hardware — and this model —
maintains each fold incrementally as a circular shift register updated
with the bit entering and the bit leaving the history.

All folds of one width share a single packed integer.  Each distinct
(length, width) fold is a field of ``width + 1`` bits in the register
of its width; the spare top bit of a field catches the bit shifted out
of it.  One push is then a fixed handful of integer operations per
width, whatever the number of folds: shift the whole register left by
one, XOR in the entering bit and the outgoing bits (one precomputed
mask per width), and wrap every field's spare bit back to its bit 0.
The masks depend only on the entering bit and on the outgoing bit of
each registered length, so they are looked up in a memo keyed by those
bits and filled on first use.  A reader takes ``packed[group] >>
offset`` and masks off the neighbouring fields with its own index or
tag mask.
"""

from __future__ import annotations

from repro.errors import ConfigError


class FoldedHistory:
    """Where one XOR-fold of the global history lives, and its value.

    :meth:`GlobalHistory.register_fold` hands these out; the fold itself
    is the field of ``folded_width`` bits at ``offset`` in the packed
    register ``packed[group]``.

    Parameters
    ----------
    history_length:
        Number of history bits folded.
    folded_width:
        Output width in bits (table index or tag width).
    """

    __slots__ = ("history_length", "folded_width", "group", "offset",
                 "_packed")

    def __init__(self, history_length: int, folded_width: int,
                 packed: list = None) -> None:
        if history_length <= 0 or folded_width <= 0:
            raise ConfigError("lengths must be positive")
        self.history_length = history_length
        self.folded_width = folded_width
        self.group = 0
        self.offset = 0
        self._packed = packed

    @property
    def value(self) -> int:
        """The current fold, ``folded_width`` bits wide."""
        return (self._packed[self.group] >> self.offset) \
            & ((1 << self.folded_width) - 1)


class GlobalHistory:
    """Global branch-outcome history shared by TAGE, ITTAGE, and the
    context value predictor.

    Keeps the full history as an integer bitstring (newest bit is bit
    0) plus one packed register per distinct fold width in
    ``packed``, holding every registered (length, width) fold of that
    width as one field (see the module docstring).
    """

    __slots__ = ("max_length", "bits", "packed", "_registers", "_widths",
                 "_layout", "_key_mask", "_masks", "_max_mask")

    def __init__(self, max_length: int = 256) -> None:
        self.max_length = max_length
        self.bits = 0
        # One packed register per distinct width; readers keep this
        # list, so it is only ever appended to and updated in place.
        self.packed = []
        # (history_length, folded_width) -> its field.
        self._registers = {}
        # folded_width -> its group (index into packed and _layout).
        self._widths = {}
        # Per group: [width, spare-bit mask, value-bit mask, folds].
        self._layout = []
        # The entering bit (bit 0) and each registered length's
        # outgoing bit, as they sit in the history after the shift.
        self._key_mask = 1
        # bits & _key_mask -> per-group XOR mask; filled by push().
        self._masks = {}
        self._max_mask = (1 << max_length) - 1

    def register_fold(self, history_length: int,
                      folded_width: int) -> FoldedHistory:
        """The fold of ``history_length`` bits to ``folded_width``;
        callers asking for the same view share it.  A fold registered
        after pushes starts from the direct fold of the current
        history, so it reads as if it had been registered from the
        start."""
        if history_length > self.max_length:
            raise ValueError(
                f"history_length {history_length} exceeds max "
                f"{self.max_length}")
        key = (history_length, folded_width)
        fold = self._registers.get(key)
        if fold is not None:
            return fold
        fold = FoldedHistory(history_length, folded_width, self.packed)
        group = self._widths.get(folded_width)
        if group is None:
            group = self._widths[folded_width] = len(self.packed)
            self.packed.append(0)
            self._layout.append([folded_width, 0, 0, []])
        layout = self._layout[group]
        offset = len(layout[3]) * (folded_width + 1)
        fold.group = group
        fold.offset = offset
        self._registers[key] = fold
        layout[1] |= 1 << (offset + folded_width)
        layout[2] |= ((1 << folded_width) - 1) << offset
        layout[3].append(fold)
        self.packed[group] |= \
            self.direct_fold(history_length, folded_width) << offset
        self._key_mask |= 1 << history_length
        self._masks.clear()
        return fold

    def _fill_masks(self, key: int) -> tuple:
        """Per-group XOR masks for one push: the entering bit (key bit
        0) at bit 0 of every field, and each fold's outgoing bit (key
        bit ``length``) where it re-enters, at ``length % width``."""
        masks = []
        for width, _spare, _keep, folds in self._layout:
            mask = 0
            for fold in folds:
                mask ^= (key & 1) << fold.offset
                mask ^= ((key >> fold.history_length) & 1) \
                    << (fold.offset + fold.history_length % width)
            masks.append(mask)
        masks = self._masks[key] = tuple(masks)
        return masks

    def push(self, outcome: bool) -> None:
        """Record a branch outcome (True = taken)."""
        bits = (self.bits << 1) | (1 if outcome else 0)
        self.bits = bits & self._max_mask
        key = bits & self._key_mask
        masks = self._masks.get(key)
        if masks is None:
            masks = self._fill_masks(key)
        packed = self.packed
        # Each field is a circular shift register: shift in the new
        # bit, XOR out the bit leaving its window, wrap the spare bit
        # back to bit 0.
        for group, (width, spare, keep, _folds) in enumerate(self._layout):
            value = (packed[group] << 1) ^ masks[group]
            packed[group] = (value ^ ((value & spare) >> width)) & keep

    def recent(self, n: int) -> int:
        """The most recent ``n`` outcomes as an integer (bit 0 = newest).

        This is the 32-bit context the paper's Value Table uses
        (§IV-C: "the branch history is the outcome of the last 32
        branches").
        """
        return self.bits & ((1 << n) - 1)

    def snapshot(self) -> int:
        """The whole kept history as an integer (bit 0 = newest)."""
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
