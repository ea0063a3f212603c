"""Set-associative cache with LRU replacement.

A compact functional cache used at every level of the hierarchy.  The
timing model only needs hit/miss outcomes (latency is owned by
:mod:`repro.memory.hierarchy`), so the cache tracks presence and
recency, plus statistics.

Implementation notes: each set is a ``dict`` mapping tag to a
monotonically increasing access stamp.  Associativities are small
(8-16), so LRU eviction scans the set for the minimum stamp rather
than maintaining an ordered structure; this is faster in CPython for
these sizes and keeps the code simple.

A line installed by a prefetch and not yet demanded carries a mark so
that its first demand hit counts as a prefetch hit.  The marks live in
one ``set`` of line numbers (``addr >> log2(line_bytes)``) per cache,
not one per cache set: a cache allocates no container per set beyond
its (initially empty, hence untracked by the cycle collector) tag
dicts.  A mark is cleared on the line's first hit, on its eviction and
on :meth:`Cache.invalidate`.
"""

from __future__ import annotations

from typing import List, Set
from repro.errors import ConfigError


def _check_power_of_two(name: str, value: int) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")


class Cache:
    """One level of a cache hierarchy.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    assoc:
        Ways per set.
    line_bytes:
        Cache line size (must divide ``size_bytes / assoc``).
    name:
        Label used in statistics and reprs.
    """

    __slots__ = ("name", "size_bytes", "assoc", "line_bytes", "num_sets",
                 "_set_shift", "_set_mask", "_tag_shift", "_sets", "_stamp",
                 "hits", "misses", "prefetch_fills", "prefetch_hits",
                 "_pf_lines")

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int = 64,
                 name: str = "cache") -> None:
        _check_power_of_two("size_bytes", size_bytes)
        _check_power_of_two("assoc", assoc)
        _check_power_of_two("line_bytes", line_bytes)
        num_sets = size_bytes // (assoc * line_bytes)
        if num_sets < 1:
            raise ConfigError("cache has no sets: size too small for "
                             f"assoc={assoc} line={line_bytes}")
        _check_power_of_two("num_sets", num_sets)
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self._set_shift = line_bytes.bit_length() - 1
        self._set_mask = num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self._sets: List[dict] = [dict() for _ in range(num_sets)]
        self._pf_lines: Set[int] = set()
        self._stamp = 0
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0
        self.prefetch_hits = 0

    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> bool:
        """Access the cache; returns True on hit.  Updates LRU state and
        fills the line on a miss (allocate-on-miss at every level)."""
        line = addr >> self._set_shift
        index = line & self._set_mask
        tag = line >> self._tag_shift
        cache_set = self._sets[index]
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            self.hits += 1
            pf_lines = self._pf_lines
            if line in pf_lines:
                self.prefetch_hits += 1
                pf_lines.discard(line)
            return True
        self.misses += 1
        self._fill(cache_set, index, tag, line, False)
        return False

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no LRU update, no fill)."""
        line = addr >> self._set_shift
        return (line >> self._tag_shift) in self._sets[line & self._set_mask]

    def fill(self, addr: int, prefetch: bool = False) -> None:
        """Install a line without counting a demand access (used for
        prefetches and for inclusive fills from lower levels)."""
        line = addr >> self._set_shift
        index = line & self._set_mask
        tag = line >> self._tag_shift
        cache_set = self._sets[index]
        if tag in cache_set:
            return
        self._fill(cache_set, index, tag, line, prefetch)

    def _fill(self, cache_set: dict, index: int, tag: int, line: int,
              prefetch: bool) -> None:
        self._stamp += 1
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=cache_set.__getitem__)
            del cache_set[victim]
            pf_lines = self._pf_lines
            if pf_lines:
                pf_lines.discard((victim << self._tag_shift) | index)
        cache_set[tag] = self._stamp
        if prefetch:
            self.prefetch_fills += 1
            self._pf_lines.add(line)

    def invalidate(self, addr: int) -> bool:
        """Drop a line if present; returns True if it was present."""
        line = addr >> self._set_shift
        cache_set = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        if tag in cache_set:
            del cache_set[tag]
            self._pf_lines.discard(line)
            return True
        return False

    def reset_stats(self) -> None:
        self.hits = self.misses = 0
        self.prefetch_fills = self.prefetch_hits = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Cache {self.name} {self.size_bytes >> 10}KB "
                f"{self.assoc}-way hits={self.hits} misses={self.misses}>")
