"""Shared predictor infrastructure.

All table-based prior-art value predictors in this repo are built from
the same parts: two-way set-associative tagged tables with utility-based
replacement, saturating/probabilistic confidence counters, and history
folding.
Centralising them keeps each predictor file about its *policy*.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError

#: A :class:`TaggedTable` key hashes to ``mixed = (key * HASH_MUL) &
#: 0xFFFFFFFF``; ``mixed % sets`` selects the set and ``(mixed >>
#: TAG_SHIFT) & TAG_MASK`` is the partial tag.  Every tagged table keeps
#: 11-bit tags (the entry-bit budgets of the predictor modules count 11
#: tag bits).
HASH_MUL = 0x9E3779B1
TAG_SHIFT = 12
TAG_MASK = 0x7FF


class XorShift:
    """Tiny deterministic PRNG for probabilistic confidence updates
    (Seznec's forward-probabilistic-counters use 1/16-style increment
    probabilities; using :mod:`random` would entangle predictor state
    with workload generation)."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0x2545F491) -> None:
        self.state = seed or 1

    def below(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self.state = x
        return (x % den) < num


class TaggedTable:
    """Two-way set-associative tagged table with utility replacement.

    The table is stored as one list per entry field (``tag``, ``value``,
    ``conf``, ``useful`` and ``extra``, a predictor-specific field such
    as a stride), indexed by *slot* ``2 * set + way``.  A slot whose tag
    is -1 is free.  A table of several ``banks`` (VTAGE's tagged
    components) keeps bank ``b`` in slots ``b * entries`` to
    ``(b + 1) * entries - 1``, so one walk covers every bank.

    A key hashes as :data:`HASH_MUL` says.  The per-op hooks inline
    :meth:`find`'s probe, reading the hash constants from this module
    and assuming the two ways (slots ``2 * set`` and ``2 * set + 1``):
    ``VtagePredictor._probe`` (the banks and the base),
    ``EvesPredictor.predict`` (E-Stride), ``DlvpPredictor._probe`` (SAP
    and CAP) and ``FVP.predict`` (the Memory Renaming Store/Load cache).
    A change to the hash or the way count changes them too;
    ``tests/test_prior_art_hook_identity.py`` and
    ``tests/test_fvp_hook_identity.py`` pin their results.
    """

    __slots__ = ("entries", "sets", "banks", "tag", "value", "conf",
                 "useful", "extra")

    def __init__(self, entries: int, banks: int = 1) -> None:
        if entries <= 0 or entries % 2 or banks <= 0:
            raise ConfigError(
                f"entries ({entries}) must be a positive multiple of the "
                f"2 ways, and banks ({banks}) positive")
        self.entries = entries
        self.sets = entries // 2
        self.banks = banks
        size = entries * banks
        self.tag: List[int] = [-1] * size
        self.value: List[int] = [0] * size
        self.conf: List[int] = [0] * size
        self.useful: List[int] = [0] * size
        self.extra: List[int] = [0] * size

    def find(self, key: int, bank: int = 0) -> int:
        """Slot holding ``key``'s tag in ``bank``, or -1; no state
        change."""
        mixed = (key * HASH_MUL) & 0xFFFFFFFF
        tag = (mixed >> TAG_SHIFT) & TAG_MASK
        slot = bank * self.entries + ((mixed % self.sets) << 1)
        tags = self.tag
        if tags[slot] == tag:
            return slot
        if tags[slot + 1] == tag:
            return slot + 1
        return -1

    def allocate(self, key: int, value: int = 0, bank: int = 0) -> int:
        """Install ``key`` with ``value`` (confidence, utility and extra
        zeroed) and return its slot; a key already present keeps its
        entry.  The victim is a free way (way 0 first), else the way
        with the lower ``useful`` counter (way 0 on a tie) when that
        counter is 0.  When both ways still have utility, both counters
        decay and -1 is returned: the caller retries on a later event."""
        mixed = (key * HASH_MUL) & 0xFFFFFFFF
        tag = (mixed >> TAG_SHIFT) & TAG_MASK
        slot = bank * self.entries + ((mixed % self.sets) << 1)
        tags = self.tag
        if tags[slot] == tag:
            return slot
        if tags[slot + 1] == tag:
            return slot + 1
        if tags[slot] != -1:
            if tags[slot + 1] == -1:
                slot += 1
            else:
                useful = self.useful
                low = useful[slot]
                other = useful[slot + 1]
                if other < low:
                    if other > 0:
                        useful[slot] = low - 1
                        useful[slot + 1] = other - 1
                        return -1
                    slot += 1
                elif low > 0:
                    useful[slot] = low - 1
                    useful[slot + 1] = other - 1
                    return -1
        tags[slot] = tag
        self.value[slot] = value
        self.conf[slot] = 0
        self.useful[slot] = 0
        self.extra[slot] = 0
        return slot

    @property
    def capacity(self) -> int:
        return self.entries * self.banks


def fold(bits: int, width: int) -> int:
    """XOR-fold an integer to ``width`` bits."""
    mask = (1 << width) - 1
    out = 0
    while bits:
        out ^= bits & mask
        bits >>= width
    return out
