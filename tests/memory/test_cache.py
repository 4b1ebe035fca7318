"""Set-associative LRU cache behaviour."""

from hypothesis import given, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import Cache


def small_cache(ways=2, sets=4, line=64):
    return Cache("t", CacheConfig(size_bytes=ways * sets * line, ways=ways, line_bytes=line))


class TestLinesSpanning:
    def test_single_line(self):
        cache = small_cache()
        assert cache.lines_spanning(0, 64) == [0]
        assert cache.lines_spanning(10, 10) == [0]

    def test_straddling(self):
        cache = small_cache()
        assert cache.lines_spanning(60, 8) == [0, 64]

    def test_empty(self):
        assert small_cache().lines_spanning(0, 0) == []

    def test_line_of(self):
        cache = small_cache()
        assert cache.line_of(130) == 128


class TestHitMiss:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0, is_store=False)
        cache.fill(0, is_store=False)
        assert cache.access(0, is_store=False)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = small_cache(ways=2, sets=1)
        line = 64
        cache.fill(0 * line, False)
        cache.fill(1 * line, False)
        cache.access(0, False)  # touch line 0: line 1 becomes LRU
        cache.fill(2 * line, False)  # evicts line 1
        assert cache.probe(0)
        assert not cache.probe(line)
        assert cache.probe(2 * line)

    def test_dirty_eviction_returns_victim(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, is_store=True)
        victim = cache.fill(64, is_store=False)
        assert victim == 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, is_store=False)
        assert cache.fill(64, is_store=False) is None

    def test_store_marks_dirty(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill(0, is_store=False)
        cache.access(0, is_store=True)  # dirty via hit
        assert cache.fill(64, is_store=False) == 0


class TestCapacity:
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_never_exceeds_ways(self, lines):
        cache = small_cache(ways=2, sets=4)
        for index in lines:
            addr = index * 64
            if not cache.access(addr, False):
                cache.fill(addr, False)
        assert cache.resident_lines() <= 8

    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(0, False)
        cache.access(0, False)
        cache.access(64, False)
        assert cache.stats.hit_rate == 0.5
