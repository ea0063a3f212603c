"""Hardware prefetchers.

The baseline core (Table II of the paper) has "aggressive multi-stream
prefetching into the L2 and LLC" and a "PC based stride prefetcher at
L1".  The stream prefetcher is a trainer that observes L1 misses and
emits prefetch line addresses; the hierarchy decides which level to
fill.  The stride prefetcher's table lives here, and its training step
is inlined into :meth:`repro.memory.hierarchy.MemoryHierarchy.access_front`,
the one per-access path every engine loop shares.
"""

from __future__ import annotations

from typing import List
from repro.errors import ConfigError

#: Shared "nothing to prefetch" result — the overwhelmingly common
#: outcome; returning a fresh list per access shows up in profiles.
_NO_PREFETCH: List[int] = []


class StridePrefetcher:
    """PC-indexed stride prefetcher (L1): the table and its parameters.

    Classic RPT design: per-PC entry holding the last address, the last
    observed stride, and a 2-bit confidence.  Once confidence reaches
    the threshold, it prefetches ``degree`` lines ahead along the
    stride.  The training step runs on every demand access, so it lives
    in one place, inline in
    :meth:`repro.memory.hierarchy.MemoryHierarchy.access_front`, which
    reads and updates :attr:`entries` and fills the prefetched lines
    into L1, L2 and the LLC as it goes.
    """

    __slots__ = ("entries", "table_size", "degree", "threshold")

    def __init__(self, table_size: int = 64, degree: int = 2,
                 threshold: int = 2) -> None:
        if table_size <= 0:
            raise ConfigError("table_size must be positive")
        self.table_size = table_size
        self.degree = degree
        self.threshold = threshold
        # pc -> [last_addr, stride, confidence]; insertion-ordered, so
        # the first key is the oldest entry (FIFO-ish eviction).
        self.entries = {}


class StreamPrefetcher:
    """Multi-stream next-line prefetcher (L2/LLC).

    Tracks up to ``num_streams`` active physical-address streams.  A
    stream is allocated on a miss; two hits in the same direction
    confirm it, after which accesses near the stream head prefetch
    ``degree`` lines ahead.
    """

    __slots__ = ("streams", "num_streams", "degree", "line_bytes",
                 "window_lines", "_clock")

    def __init__(self, num_streams: int = 16, degree: int = 4,
                 line_bytes: int = 64, window_lines: int = 16) -> None:
        self.num_streams = num_streams
        self.degree = degree
        self.line_bytes = line_bytes
        self.window_lines = window_lines
        # list of [head_line, direction, confirmed, last_used_clock]
        self.streams: List[list] = []
        self._clock = 0

    def train(self, addr: int) -> List[int]:
        """Observe a demand access; return prefetch addresses (bytes)."""
        clock = self._clock + 1
        self._clock = clock
        line = addr // self.line_bytes
        window = self.window_lines
        for stream in self.streams:
            delta = line - stream[0]
            if delta > window or delta < -window:
                continue
            confirmed = stream[2]
            if confirmed and stream[1] * delta < 0:
                continue
            stream[3] = clock
            if delta:
                stream[0] = line
                if not confirmed:
                    # First movement fixes the stream direction.
                    stream[1] = 1 if delta > 0 else -1
                    stream[2] = True
            elif not confirmed:
                return _NO_PREFETCH
            direction = stream[1]
            line_bytes = self.line_bytes
            return [(line + direction * i) * line_bytes
                    for i in range(1, self.degree + 1)]
        self._allocate(line)
        return _NO_PREFETCH

    def _allocate(self, line: int) -> None:
        streams = self.streams
        if len(streams) >= self.num_streams:
            # Evict the least recently used stream (the first on a tie).
            oldest = 0
            oldest_clock = streams[0][3]
            for i in range(1, len(streams)):
                used = streams[i][3]
                if used < oldest_clock:
                    oldest = i
                    oldest_clock = used
            streams.pop(oldest)
        # Allocate ascending and descending candidates as one stream with
        # direction decided by the first subsequent access; default +1.
        streams.append([line, 1, False, self._clock])
