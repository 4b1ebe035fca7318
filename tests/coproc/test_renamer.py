"""Renamer freelist: spatial vs temporal pools (Fig. 13's mechanism)."""

import pytest

from repro.common.config import VectorConfig
from repro.common.errors import ConfigurationError, ProtocolError
from repro.coproc.renamer import SHARED_MIN_RESERVE, Renamer
from repro.validation.reference_engine import release, try_allocate


def vector(vregs=128, arch=32):
    return VectorConfig(vregs_per_block=vregs, arch_vregs=arch)


class TestSpatial:
    def test_private_pools(self):
        renamer = Renamer(vector(), num_cores=2, shared=False)
        assert renamer.capacity(0) == 96
        assert renamer.capacity(1) == 96

    def test_allocation_isolated_per_core(self):
        renamer = Renamer(vector(), num_cores=2, shared=False)
        renamer.allocate_batch(0, 96)
        assert renamer.available(0) == 0
        with pytest.raises(ProtocolError):
            renamer.allocate_batch(0, 1)
        assert renamer.available(1) == 96
        renamer.allocate_batch(1, 1)

    def test_release_returns_register(self):
        renamer = Renamer(vector(), num_cores=2, shared=False)
        renamer.allocate_batch(0, 1)
        renamer.release_batch(0, 1)
        assert renamer.available(0) == 96
        assert renamer.in_flight(0) == 0

    def test_double_release_rejected(self):
        renamer = Renamer(vector(), num_cores=2, shared=False)
        with pytest.raises(ProtocolError):
            renamer.release_batch(0, 1)
        renamer.allocate_batch(0, 2)
        with pytest.raises(ProtocolError):
            renamer.release_batch(0, 3)


class TestTemporal:
    def test_shared_pool_keeps_per_core_context(self):
        # Per §7.6: same physical registers per core as the 2-core case.
        renamer = Renamer(vector(), num_cores=2, shared=True)
        assert renamer.capacity(0) == (128 // 2 - 32) * 2

    def test_four_core_pool_scales(self):
        renamer = Renamer(vector(), num_cores=4, shared=True)
        assert renamer.capacity(0) == (128 // 2 - 32) * 4

    def test_contention_visible_across_cores(self):
        renamer = Renamer(vector(), num_cores=2, shared=True)
        renamer.allocate_batch(0, renamer.available(0))
        # Core 0 hit its fairness cap; core 1 still has its reserve.
        assert renamer.available(0) == 0
        assert renamer.available(1) >= SHARED_MIN_RESERVE

    def test_fairness_cap(self):
        renamer = Renamer(vector(), num_cores=2, shared=True)
        grabbed = renamer.available(0)
        renamer.allocate_batch(0, grabbed)
        assert grabbed == renamer.capacity(0) - SHARED_MIN_RESERVE

    def test_insufficient_registers_rejected(self):
        with pytest.raises(ConfigurationError):
            Renamer(vector(vregs=64, arch=32), num_cores=2, shared=True)


class TestCounters:
    def test_allocation_counters(self):
        renamer = Renamer(vector(), num_cores=2, shared=False)
        renamer.allocate_batch(0, 1)
        renamer.allocate_batch(1, 2)
        assert renamer.in_flight(0) == 1
        assert renamer.in_flight(1) == 2


class TestOraclePerUop:
    """The oracle's own headroom check: one register at a time, worked out
    from the freelist, the hold count and the hold cap."""

    @pytest.mark.parametrize("shared", [False, True])
    def test_claims_exactly_the_headroom(self, shared):
        renamer = Renamer(vector(), num_cores=2, shared=shared)
        expected = renamer.available(0)
        grabbed = 0
        while try_allocate(renamer, 0):
            grabbed += 1
        assert grabbed == expected
        assert renamer.in_flight(0) == grabbed

    def test_fairness_cap_leaves_the_reserve(self):
        renamer = Renamer(vector(), num_cores=2, shared=True)
        while try_allocate(renamer, 0):
            pass
        assert renamer.in_flight(0) == renamer.capacity(0) - SHARED_MIN_RESERVE
        for _ in range(SHARED_MIN_RESERVE):
            assert try_allocate(renamer, 1)
        assert not try_allocate(renamer, 1)  # the shared freelist is empty

    def test_release_and_double_release(self):
        renamer = Renamer(vector(), num_cores=2, shared=False)
        assert try_allocate(renamer, 0)
        release(renamer, 0)
        assert renamer.available(0) == 96 and renamer.in_flight(0) == 0
        with pytest.raises(ProtocolError):
            release(renamer, 0)
