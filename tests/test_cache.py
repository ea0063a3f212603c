"""Unit tests for the set-associative cache."""

import pytest

from repro.memory.cache import Cache


def make_cache(size=1024, assoc=2, line=64):
    return Cache(size, assoc, line, name="test")


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(1024, 2, 64)
        assert cache.num_sets == 8

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Cache(1000, 2, 64)
        with pytest.raises(ValueError):
            Cache(1024, 3, 64)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Cache(64, 2, 64)  # zero sets


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0x1000) is False
        assert cache.lookup(0x1000) is True
        assert cache.misses == 1 and cache.hits == 1

    def test_same_line_hits(self):
        cache = make_cache()
        cache.lookup(0x1000)
        assert cache.lookup(0x1000 + 63) is True
        assert cache.lookup(0x1000 + 64) is False

    def test_lru_eviction(self):
        cache = make_cache(1024, 2, 64)  # 8 sets
        set_stride = 8 * 64
        base = 0x0
        cache.lookup(base)                    # way 0
        cache.lookup(base + set_stride)       # way 1
        cache.lookup(base)                    # refresh way 0
        cache.lookup(base + 2 * set_stride)   # evicts way 1 (LRU)
        assert cache.probe(base) is True
        assert cache.probe(base + set_stride) is False

    def test_probe_does_not_fill(self):
        cache = make_cache()
        assert cache.probe(0x4000) is False
        assert cache.probe(0x4000) is False
        assert cache.accesses == 0

    def test_invalidate(self):
        cache = make_cache()
        cache.lookup(0x1000)
        assert cache.invalidate(0x1000) is True
        assert cache.probe(0x1000) is False
        assert cache.invalidate(0x1000) is False

    def test_occupancy_bounded_by_capacity(self):
        cache = make_cache(1024, 2, 64)
        for i in range(1000):
            cache.lookup(i * 64)
        assert cache.occupancy() <= 1024 // 64

    def test_hit_rate(self):
        cache = make_cache()
        cache.lookup(0)
        cache.lookup(0)
        cache.lookup(0)
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_reset_stats(self):
        cache = make_cache()
        cache.lookup(0)
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0


class TestPrefetchFills:
    def test_fill_counts_as_prefetch(self):
        cache = make_cache()
        cache.fill(0x2000, prefetch=True)
        assert cache.prefetch_fills == 1
        assert cache.lookup(0x2000) is True
        assert cache.prefetch_hits == 1

    def test_prefetch_hit_counted_once(self):
        cache = make_cache()
        cache.fill(0x2000, prefetch=True)
        cache.lookup(0x2000)
        cache.lookup(0x2000)
        assert cache.prefetch_hits == 1

    def test_fill_existing_is_noop(self):
        cache = make_cache()
        cache.lookup(0x2000)
        cache.fill(0x2000, prefetch=True)
        assert cache.prefetch_fills == 0


class TestPrefetchMarks:
    """The cache keeps one set of prefetch marks, keyed by line number:
    a mark must follow its own line and die with it."""

    SET_STRIDE = 8 * 64  # make_cache(): 8 sets of 64-byte lines

    def test_evicted_unused_prefetch_is_not_a_later_prefetch_hit(self):
        cache = make_cache(1024, 2, 64)
        victim = 3 * 64 + 5 * self.SET_STRIDE      # set 3, tag 5
        cache.fill(victim, prefetch=True)
        cache.lookup(victim + self.SET_STRIDE)     # same set, way 2
        cache.lookup(victim + 2 * self.SET_STRIDE)  # evicts the victim
        assert cache.probe(victim) is False
        assert cache.lookup(victim) is False       # demand miss refills
        assert cache.lookup(victim) is True
        assert cache.prefetch_fills == 1
        assert cache.prefetch_hits == 0

    def test_invalidated_prefetch_is_not_a_later_prefetch_hit(self):
        cache = make_cache()
        cache.fill(0x2040, prefetch=True)
        assert cache.invalidate(0x2040) is True
        assert cache.lookup(0x2040) is False
        assert cache.lookup(0x2040) is True
        assert cache.prefetch_hits == 0

    def test_mark_is_per_line_not_per_tag_or_set(self):
        cache = make_cache(1024, 2, 64)
        cache.fill(0x0, prefetch=True)             # set 0, tag 0
        cache.lookup(0x40)                          # set 1, tag 0
        cache.lookup(self.SET_STRIDE)               # set 0, tag 1
        assert cache.lookup(0x40) is True
        assert cache.lookup(self.SET_STRIDE) is True
        assert cache.prefetch_hits == 0
        assert cache.lookup(0x0) is True
        assert cache.prefetch_hits == 1
