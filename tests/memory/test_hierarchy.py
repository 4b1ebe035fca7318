"""The shared Vec Cache -> L2 -> DRAM hierarchy."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.common.config import CacheConfig, MemoryConfig
from repro.memory.hierarchy import VectorMemorySystem
from repro.validation.reference_engine import ReferenceMemorySystem


def tiny_memory():
    return MemoryConfig(
        vec_cache=CacheConfig(size_bytes=4096, ways=4, line_bytes=64, latency=5, bytes_per_cycle=1024),
        l2=CacheConfig(size_bytes=16384, ways=4, line_bytes=64, latency=18, bytes_per_cycle=64),
        dram_latency=120,
        dram_bytes_per_cycle=32,
    )


class TestAccessLevels:
    def test_cold_access_reaches_dram(self):
        memory = VectorMemorySystem(tiny_memory())
        result = memory.access(0, 64, 0, is_store=False)
        assert result.dram_accesses == 1
        assert result.complete_cycle >= 5 + 18 + 120

    def test_second_access_hits_vec_cache(self):
        memory = VectorMemorySystem(tiny_memory())
        memory.access(0, 64, 0, is_store=False)
        result = memory.access(0, 64, 200, is_store=False)
        assert result.vec_cache_hits == 1
        assert result.l2_hits == result.dram_accesses == 0
        assert result.complete_cycle <= 200 + 6

    def test_l2_hit_after_vec_cache_eviction(self):
        config = tiny_memory()
        memory = VectorMemorySystem(config)
        # Stream more than the Vec Cache but less than L2.
        for addr in range(0, 8192, 64):
            memory.access(addr, 64, 0, is_store=False)
        result = memory.access(0, 64, 10_000, is_store=False)
        assert result.l2_hits == 1
        assert result.dram_accesses == 0

    def test_multi_line_access(self):
        memory = VectorMemorySystem(tiny_memory())
        result = memory.access(0, 256, 0, is_store=False)
        assert result.lines == 4

    def test_empty_access(self):
        memory = VectorMemorySystem(tiny_memory())
        result = memory.access(0, 0, 7, is_store=False)
        assert result.complete_cycle == 7
        assert result.lines == 0


class TestBandwidthContention:
    def test_dram_bandwidth_bounds_streaming(self):
        config = tiny_memory()
        memory = VectorMemorySystem(config)
        total_bytes = 64 * 1024
        finish = 0.0
        for addr in range(0, total_bytes, 64):
            finish = memory.access(addr, 64, 0, is_store=False).complete_cycle
        # Streaming must take at least bytes / DRAM bandwidth.
        assert finish >= total_bytes / config.dram_bytes_per_cycle

    def test_two_streams_share_dram(self):
        config = tiny_memory()
        memory = VectorMemorySystem(config)
        solo_finish = 0.0
        for addr in range(0, 16384, 64):
            solo_finish = memory.access(addr, 64, 0, False).complete_cycle
        shared = VectorMemorySystem(config)
        finish = 0.0
        for addr in range(0, 16384, 64):
            shared.access(1 << 20 | addr, 64, 0, False)
            finish = shared.access(addr, 64, 0, False).complete_cycle
        assert finish > solo_finish * 1.5


class TestWritebacks:
    def test_dirty_evictions_consume_l2_bandwidth(self):
        config = tiny_memory()
        memory = VectorMemorySystem(config)
        for addr in range(0, 8192, 64):
            memory.access(addr, 64, 0, is_store=True)
        assert memory.vec_cache.stats.writebacks > 0


def crowded_memory():
    """Two sets of two ways over four of two: almost every fill evicts, on
    both levels, and the narrow channels queue every line."""
    return MemoryConfig(
        vec_cache=CacheConfig(size_bytes=256, ways=2, line_bytes=64, latency=5, bytes_per_cycle=64),
        l2=CacheConfig(size_bytes=512, ways=2, line_bytes=64, latency=18, bytes_per_cycle=32),
        dram_latency=120,
        dram_bytes_per_cycle=16,
    )


class _ServeLog:
    """An auditor stand-in that records every channel serve it is told of,
    with the channel's queue tail at that moment."""

    def __init__(self, memory):
        self.serves = []
        for regulator in (memory.vec_cache_bw, memory.l2_bw, memory.dram_bw):
            regulator.auditor = self

    def on_bandwidth_serve(self, regulator, nbytes, earliest, start, finish):
        self.serves.append(
            (regulator.name, nbytes, float(earliest), start, finish, regulator._next_free)
        )


def _state(memory):
    return (
        [
            (cache.stats, [list(cache_set.items()) for cache_set in cache._sets])
            for cache in (memory.vec_cache, memory.l2)
        ],
        [
            (regulator._next_free, regulator.bytes_served, regulator.requests_served)
            for regulator in (memory.vec_cache_bw, memory.l2_bw, memory.dram_bw)
        ],
    )


def _diff_loops(accesses):
    """Drive the inlined loop and the oracle's per-call loop through the same
    accesses; every result, cache set, dirty bit, channel and serve agrees."""
    fast = VectorMemorySystem(crowded_memory())
    oracle = ReferenceMemorySystem(crowded_memory())
    fast_log, oracle_log = _ServeLog(fast), _ServeLog(oracle)
    for addr, nbytes, cycle, is_store in accesses:
        got = fast.access(addr, nbytes, cycle, is_store)
        want = oracle.access(addr, nbytes, cycle, is_store)
        assert got == want
        assert type(got.complete_cycle) is type(want.complete_cycle)
        assert _state(fast) == _state(oracle)
        assert fast_log.serves == oracle_log.serves
    return fast


_ACCESS = st.tuples(
    st.integers(0, 2047),  # 32 lines: both levels overflow
    st.integers(0, 200),  # zero-byte, partial and multi-line spans
    st.integers(0, 400).map(lambda c: c / 4),  # fractional, out of order
    st.booleans(),
)


class TestInlinedLoopAgainstOracle:
    @given(st.lists(_ACCESS, max_size=60))
    def test_every_access_matches_the_per_call_loop(self, accesses):
        _diff_loops(accesses)

    def test_the_diff_reaches_every_eviction_path(self):
        rng = random.Random(3)
        accesses = [
            (rng.randrange(2048), rng.randrange(200), rng.randrange(400) / 4, rng.random() < 0.5)
            for _ in range(400)
        ]
        memory = _diff_loops(accesses)
        assert memory.vec_cache.stats.writebacks > 0
        assert memory.l2.stats.writebacks > 0
        # DRAM carried write-backs as well as fetches.
        assert memory.dram_bw.requests_served > memory.l2.stats.misses
