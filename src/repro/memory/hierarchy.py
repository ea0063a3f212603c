"""Three-level data-cache hierarchy + DRAM, with prefetchers.

Latencies follow Table II of the paper: 32 KB 8-way L1D at 5 cycles,
256 KB 16-way private L2 at 15 cycles round trip, 8 MB 16-way shared
LLC at 40 cycles round trip, and a DDR4 model beyond that.  A PC-based
stride prefetcher trains at L1 and multi-stream prefetchers fill the
L2 and LLC, as in the baseline core.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.memory.cache import Cache
from repro.memory.dram import Dram, DramConfig
from repro.memory.prefetcher import StreamPrefetcher, StridePrefetcher

L1 = "L1"
L2 = "L2"
LLC = "LLC"
DRAM = "DRAM"

LEVELS = (L1, L2, LLC, DRAM)


class MemHierarchyConfig:
    """Geometry and latency knobs for :class:`MemoryHierarchy`."""

    __slots__ = ("l1_size", "l1_assoc", "l1_latency",
                 "l2_size", "l2_assoc", "l2_latency",
                 "llc_size", "llc_assoc", "llc_latency",
                 "line_bytes", "dram", "enable_prefetch")

    def __init__(self,
                 l1_size: int = 32 * 1024, l1_assoc: int = 8,
                 l1_latency: int = 5,
                 l2_size: int = 256 * 1024, l2_assoc: int = 16,
                 l2_latency: int = 15,
                 llc_size: int = 8 * 1024 * 1024, llc_assoc: int = 16,
                 llc_latency: int = 40,
                 line_bytes: int = 64,
                 dram: DramConfig = None,
                 enable_prefetch: bool = True) -> None:
        self.l1_size = l1_size
        self.l1_assoc = l1_assoc
        self.l1_latency = l1_latency
        self.l2_size = l2_size
        self.l2_assoc = l2_assoc
        self.l2_latency = l2_latency
        self.llc_size = llc_size
        self.llc_assoc = llc_assoc
        self.llc_latency = llc_latency
        self.line_bytes = line_bytes
        self.dram = dram or DramConfig(line_bytes=line_bytes)
        self.enable_prefetch = enable_prefetch

    @classmethod
    def skylake(cls) -> "MemHierarchyConfig":
        """The Table II configuration."""
        return cls()


class AccessResult(NamedTuple):
    """Outcome of one data access."""

    latency: int
    level: str


class MemoryHierarchy:
    """Functional cache/DRAM stack returning per-access latencies."""

    __slots__ = ("config", "l1", "l2", "llc", "dram",
                 "stride_pf", "stream_pf", "level_counts",
                 "_l1_result", "_l2_result", "_llc_result", "_line_shift")

    def __init__(self, config: MemHierarchyConfig = None) -> None:
        cfg = config or MemHierarchyConfig()
        self.config = cfg
        self.l1 = Cache(cfg.l1_size, cfg.l1_assoc, cfg.line_bytes, name="L1D")
        self.l2 = Cache(cfg.l2_size, cfg.l2_assoc, cfg.line_bytes, name="L2")
        self.llc = Cache(cfg.llc_size, cfg.llc_assoc, cfg.line_bytes,
                         name="LLC")
        self.dram = Dram(cfg.dram)
        self.stride_pf = StridePrefetcher()
        self.stream_pf = StreamPrefetcher(line_bytes=cfg.line_bytes)
        self.level_counts = {level: 0 for level in LEVELS}
        # Fixed-latency outcomes are immutable: share one instance per
        # level instead of constructing a NamedTuple per access.
        self._l1_result = AccessResult(cfg.l1_latency, L1)
        self._l2_result = AccessResult(cfg.l2_latency, L2)
        self._llc_result = AccessResult(cfg.llc_latency, LLC)
        self._line_shift = cfg.line_bytes.bit_length() - 1

    # ------------------------------------------------------------------
    def access(self, pc: int, addr: int, cycle: int,
               is_store: bool = False) -> AccessResult:
        """Perform a demand access; returns latency and the hit level.

        Stores are modelled write-allocate/write-back: they probe the
        hierarchy like loads (the store buffer hides their latency in
        the timing model, but they still move lines and train
        prefetchers).
        """
        front = self.access_front(pc, addr, is_store=is_store)
        if front is not None:
            return front
        latency = self.config.llc_latency + self.dram.access(addr, cycle)
        return AccessResult(latency, DRAM)

    def access_front(self, pc: int, addr: int,
                     is_store: bool = False) -> Optional[AccessResult]:
        """The cache-side half of :meth:`access`: prefetcher training,
        L1/L2/LLC lookups and level accounting — everything whose state
        evolution depends only on the program-order access stream,
        never on issue cycles.  Returns ``None`` when the access misses
        all the way to DRAM; the caller owes exactly one
        ``dram.access(addr, cycle)`` call for it (DRAM bank queueing is
        the one timing-coupled piece of the hierarchy).

        This body is the one copy of the stride prefetcher's training
        (:class:`~repro.memory.prefetcher.StridePrefetcher` holds only
        the table and its parameters).  Its prefetches fill L1, L2 and
        the LLC in the same loop, and a second prefetch of the line just
        filled is skipped (it would be a no-op at every level).  On an
        L1 miss the stream prefetcher trains on the miss stream and
        fills L2 and the LLC.

        The vector engine backend (docs/VECTOR.md) pre-passes whole
        windows through this front half in program order and defers
        only the DRAM tail calls into its timestamp recurrence, which
        keeps results bit-identical to the one-call-per-op loops.
        """
        prefetch = self.config.enable_prefetch
        if prefetch:
            # Stride prefetcher (RPT) training: one entry per PC.
            stride_pf = self.stride_pf
            entries = stride_pf.entries
            entry = entries.get(pc)
            if entry is None:
                if len(entries) >= stride_pf.table_size:
                    # FIFO-ish eviction: drop the oldest inserted entry.
                    entries.pop(next(iter(entries)))
                entries[pc] = [addr, 0, 0]
            else:
                stride = entry[1]
                new_stride = addr - entry[0]
                if new_stride == stride and stride != 0:
                    confidence = entry[2] + 1
                    if confidence > 3:
                        confidence = 3
                else:
                    confidence = entry[2] if stride == new_stride else 0
                    stride = new_stride
                entry[0] = addr
                entry[1] = stride
                entry[2] = confidence
                if confidence >= stride_pf.threshold and stride != 0:
                    l1_fill = self.l1.fill
                    l2_fill = self.l2.fill
                    llc_fill = self.llc.fill
                    shift = self._line_shift
                    last_line = None
                    pf_addr = addr
                    for _ in range(stride_pf.degree):
                        pf_addr += stride
                        pf_line = pf_addr >> shift
                        if pf_line == last_line:
                            continue
                        last_line = pf_line
                        l1_fill(pf_addr, True)
                        l2_fill(pf_addr, True)
                        llc_fill(pf_addr, True)

        counts = self.level_counts
        if self.l1.lookup(addr):
            counts[L1] += 1
            return self._l1_result

        l2 = self.l2
        llc = self.llc
        if prefetch:
            # L1 miss: train the stream prefetcher on the miss stream.
            for pf_addr in self.stream_pf.train(addr):
                l2.fill(pf_addr, True)
                llc.fill(pf_addr, True)

        if l2.lookup(addr):
            counts[L2] += 1
            return self._l2_result
        if llc.lookup(addr):
            counts[LLC] += 1
            return self._llc_result
        counts[DRAM] += 1
        return None

    # ------------------------------------------------------------------
    def probe_level(self, addr: int) -> str:
        """Which level would serve ``addr`` right now (no state change)."""
        if self.l1.probe(addr):
            return L1
        if self.l2.probe(addr):
            return L2
        if self.llc.probe(addr):
            return LLC
        return DRAM

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        self.l2.reset_stats()
        self.llc.reset_stats()
        self.dram.reset_stats()
        self.level_counts = {level: 0 for level in LEVELS}

    def stats(self) -> dict:
        """Aggregate statistics snapshot (for reports and tests)."""
        total = sum(self.level_counts.values())
        return {
            "accesses": total,
            "level_counts": dict(self.level_counts),
            "l1_hit_rate": self.l1.hit_rate,
            "l2_hit_rate": self.l2.hit_rate,
            "llc_hit_rate": self.llc.hit_rate,
            "dram_row_hit_rate": self.dram.row_hit_rate,
        }

    def publish_stats(self, group) -> None:
        """Register the hierarchy's statistics into a telemetry
        :class:`~repro.telemetry.stats.StatGroup` — one child group per
        cache plus the DRAM row-state counters."""
        for cache in (self.l1, self.l2, self.llc):
            sub = group.group(cache.name.lower())
            sub.counter("hits", value=cache.hits)
            sub.counter("misses", value=cache.misses)
            sub.counter("prefetch_fills", value=cache.prefetch_fills)
            sub.counter("prefetch_hits", value=cache.prefetch_hits)
        dram = group.group("dram")
        dram.counter("accesses", value=self.dram.accesses)
        dram.counter("row_hits", value=self.dram.row_hits)
        dram.counter("row_misses", value=self.dram.row_misses)
        dram.counter("row_conflicts", value=self.dram.row_conflicts)
