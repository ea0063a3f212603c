"""Unit tests for the stride and stream prefetchers.

The stride prefetcher trains inside ``MemoryHierarchy.access_front``,
so its tests drive a hierarchy and observe the table and the filled
lines; the stream prefetcher is tested through its own ``train``.
"""

from repro.memory.hierarchy import MemHierarchyConfig, MemoryHierarchy
from repro.memory.prefetcher import StreamPrefetcher, StridePrefetcher


def stride_hierarchy(**params):
    """A Table II hierarchy, prefetch on, with the stride prefetcher's
    table replaced by one built from ``params``.  Its training runs
    inside ``MemoryHierarchy.access_front``."""
    mem = MemoryHierarchy(MemHierarchyConfig(enable_prefetch=True))
    mem.stride_pf = StridePrefetcher(**params)
    return mem


def access(mem, pc, addr):
    """One demand access; returns how many lines the stride prefetcher
    newly installed in L1 (the stream prefetcher never fills L1)."""
    before = mem.l1.prefetch_fills
    mem.access_front(pc, addr)
    return mem.l1.prefetch_fills - before


def assert_prefetched(mem, addr):
    """A stride prefetch fills L1, L2 and the LLC."""
    assert mem.l1.probe(addr)
    assert mem.l2.probe(addr)
    assert mem.llc.probe(addr)


class TestStridePrefetcher:
    def test_learns_constant_stride(self):
        mem = stride_hierarchy(degree=2, threshold=2)
        pc = 0x400000
        for i in range(6):
            access(mem, pc, 0x1000 + i * 256)
        last = 0x1000 + 5 * 256
        assert mem.stride_pf.entries[pc] == [last, 256, 3]
        # The last access prefetched exactly two lines ahead.
        assert_prefetched(mem, last + 256)
        assert_prefetched(mem, last + 512)
        assert not mem.l1.probe(last + 768)
        # Lines 4..7 were each stride-filled once (accesses 3, 4 and 5
        # prefetch two ahead; a line already in L1 is not refilled).
        assert mem.l1.prefetch_fills == 4

    def test_no_prefetch_before_confidence(self):
        mem = stride_hierarchy(threshold=2)
        pc = 0x400000
        assert access(mem, pc, 0x1000) == 0
        assert mem.stride_pf.entries[pc] == [0x1000, 0, 0]
        assert access(mem, pc, 0x1100) == 0  # stride learned, conf 0
        assert mem.stride_pf.entries[pc] == [0x1100, 0x100, 0]
        assert not mem.l1.probe(0x1200)

    def test_stride_change_resets(self):
        mem = stride_hierarchy(threshold=2)
        pc = 0x400000
        for i in range(5):
            access(mem, pc, 0x1000 + i * 64)
        assert mem.stride_pf.entries[pc] == [0x1100, 64, 3]
        assert access(mem, pc, 0x9000) == 0   # irregular jump
        assert mem.stride_pf.entries[pc] == [0x9000, 0x9000 - 0x1100, 0]
        assert not mem.l1.probe(0x9000 + (0x9000 - 0x1100))
        assert access(mem, pc, 0x9040) == 0   # new stride, conf resets
        assert mem.stride_pf.entries[pc] == [0x9040, 0x40, 0]
        assert not mem.l1.probe(0x9080)

    def test_zero_stride_never_prefetches(self):
        mem = stride_hierarchy(threshold=1)
        pc = 0x400000
        for _ in range(8):
            assert access(mem, pc, 0x2000) == 0
        assert mem.stride_pf.entries[pc] == [0x2000, 0, 0]
        assert mem.l1.prefetch_fills == 0

    def test_negative_stride(self):
        mem = stride_hierarchy(degree=1, threshold=2)
        pc = 0x400000
        for i in range(5):
            access(mem, pc, 0x10000 - i * 128)
        last = 0x10000 - 5 * 128
        assert access(mem, pc, last) == 1
        assert mem.stride_pf.entries[pc] == [last, -128, 3]
        assert_prefetched(mem, last - 128)
        assert not mem.l1.probe(last - 256)  # degree 1

    def test_table_eviction(self):
        mem = stride_hierarchy(table_size=2)
        access(mem, 0x1, 0x1000)
        access(mem, 0x2, 0x2000)
        access(mem, 0x3, 0x3000)
        assert len(mem.stride_pf.entries) == 2
        assert 0x1 not in mem.stride_pf.entries


class TestStreamPrefetcher:
    def test_confirms_ascending_stream(self):
        pf = StreamPrefetcher(degree=2, line_bytes=64)
        assert pf.train(0x0) == []          # allocate
        out = pf.train(0x40)                # confirm, direction +1
        assert out == [0x80, 0xC0]

    def test_descending_stream(self):
        pf = StreamPrefetcher(degree=2, line_bytes=64)
        pf.train(0x10000)
        out = pf.train(0x10000 - 64)
        assert out == [0x10000 - 128, 0x10000 - 192]

    def test_out_of_window_allocates_new_stream(self):
        pf = StreamPrefetcher(window_lines=4, line_bytes=64)
        pf.train(0x0)
        pf.train(0x100000)  # far away: new stream, no prefetch
        assert len(pf.streams) == 2

    def test_stream_capacity(self):
        pf = StreamPrefetcher(num_streams=2, line_bytes=64)
        pf.train(0x000000)
        pf.train(0x100000)
        pf.train(0x200000)
        assert len(pf.streams) == 2

    def test_same_line_rehit_no_prefetch_until_movement(self):
        pf = StreamPrefetcher(line_bytes=64)
        pf.train(0x0)
        assert pf.train(0x8) == []  # same line, no direction yet
        out = pf.train(0x40)
        assert out  # movement confirms
