"""Shared predictor infrastructure.

All table-based value predictors in this repo are built from the same
parts: set-associative tagged tables with utility-based replacement,
saturating/probabilistic confidence counters, and history folding.
Centralising them keeps each predictor file about its *policy*.
"""

from __future__ import annotations

from typing import List, Optional
from repro.errors import ConfigError


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


class ValueEntry:
    """One tagged value-table entry."""

    __slots__ = ("tag", "value", "confidence", "useful", "extra")

    def __init__(self) -> None:
        self.tag = -1
        self.value = 0
        self.confidence = 0
        self.useful = 0
        self.extra = 0  # predictor-specific (stride, no-predict, ...)

    def reset(self, tag: int, value: int = 0) -> None:
        self.tag = tag
        self.value = value
        self.confidence = 0
        self.useful = 0
        self.extra = 0


class TaggedTable:
    """Set-associative tagged table with utility replacement.

    ``entries = sets * ways``.  Replacement picks an invalid way, else
    the way with the lowest ``useful`` counter (decrementing on
    contention, like the paper's utility scheme).
    """

    __slots__ = ("sets", "ways", "tag_bits", "rows", "_tag_mask")

    def __init__(self, entries: int, ways: int = 2,
                 tag_bits: int = 11) -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ConfigError(
                f"entries ({entries}) must be a positive multiple of "
                f"ways ({ways})")
        self.sets = entries // ways
        self.ways = ways
        self.tag_bits = tag_bits
        self._tag_mask = (1 << tag_bits) - 1
        self.rows: List[List[ValueEntry]] = [
            [ValueEntry() for _ in range(ways)] for _ in range(self.sets)]

    def lookup(self, key: int) -> Optional[ValueEntry]:
        """Matching entry or None; no allocation, no state change."""
        mixed = (key * 0x9E3779B1) & 0xFFFFFFFF
        tag = (mixed >> 12) & self._tag_mask
        for entry in self.rows[mixed % self.sets]:
            if entry.tag == tag:
                return entry
        return None

    def allocate(self, key: int, value: int = 0) -> Optional[ValueEntry]:
        """Install ``key``; returns the entry, or None when every way in
        the set still has utility (contention decays their utility —
        the caller retries on a later event)."""
        mixed = (key * 0x9E3779B1) & 0xFFFFFFFF
        row = self.rows[mixed % self.sets]
        tag = (mixed >> 12) & self._tag_mask
        for entry in row:
            if entry.tag == tag:
                return entry
        victim = None
        for entry in row:
            if entry.tag == -1:
                victim = entry
                break
        if victim is None:
            lowest = row[0]
            for entry in row:
                if entry.useful < lowest.useful:
                    lowest = entry
            if lowest.useful > 0:
                for entry in row:
                    if entry.useful > 0:
                        entry.useful -= 1
                return None
            victim = lowest
        victim.reset(tag, value)
        return victim

    def entries(self):
        """Iterate all entries (tests and resets)."""
        for row in self.rows:
            yield from row

    def clear(self) -> None:
        for entry in self.entries():
            entry.tag = -1
            entry.value = 0
            entry.confidence = 0
            entry.useful = 0
            entry.extra = 0

    @property
    def capacity(self) -> int:
        return self.sets * self.ways


def fold(bits: int, width: int) -> int:
    """XOR-fold an integer to ``width`` bits."""
    mask = (1 << width) - 1
    out = 0
    while bits:
        out ^= bits & mask
        bits >>= width
    return out


def mix_pc_history(pc: int, history: int, history_bits: int,
                   width: int = 30) -> int:
    """Standard (PC, folded history) hash used as a table key."""
    h = fold(history & ((1 << history_bits) - 1), width)
    return (pc ^ (pc >> 13) ^ (h * 2654435761)) & ((1 << width) - 1)
