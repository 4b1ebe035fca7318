"""Memory Ordering Buffer: address-overlap hazards (§4.1.2)."""

import pytest

from repro.memory.mob import MemoryOrderingBuffer


class TestOrdering:
    def test_load_after_overlapping_store_waits(self):
        mob = MemoryOrderingBuffer()
        mob.track(0, 64, complete_cycle=50, is_store=True)
        assert mob.earliest_start(32, 16, cycle=10, is_store=False) == 50

    def test_load_after_disjoint_store_proceeds(self):
        mob = MemoryOrderingBuffer()
        mob.track(0, 64, complete_cycle=50, is_store=True)
        assert mob.earliest_start(64, 16, cycle=10, is_store=False) == 10

    def test_load_after_load_proceeds(self):
        mob = MemoryOrderingBuffer()
        mob.track(0, 64, complete_cycle=50, is_store=False)
        assert mob.earliest_start(0, 64, cycle=10, is_store=False) == 10

    def test_store_after_overlapping_load_waits(self):
        # Write-after-read.
        mob = MemoryOrderingBuffer()
        mob.track(0, 64, complete_cycle=50, is_store=False)
        assert mob.earliest_start(0, 8, cycle=10, is_store=True) == 50

    def test_completed_entries_ignored(self):
        mob = MemoryOrderingBuffer()
        mob.track(0, 64, complete_cycle=50, is_store=True)
        assert mob.earliest_start(0, 64, cycle=60, is_store=False) == 60

    def test_outstanding_count(self):
        mob = MemoryOrderingBuffer()
        mob.track(0, 64, complete_cycle=50, is_store=True)
        mob.track(64, 64, complete_cycle=70, is_store=False)
        assert mob.outstanding(cycle=10) == 2
        assert mob.outstanding(cycle=60) == 1

    def test_track_only_appends(self):
        # ``track`` never prunes (``earliest_start`` does, on the same
        # access): whatever was outstanding stays, plus the new region —
        # even long-completed entries and far-future completion cycles.
        mob = MemoryOrderingBuffer()
        mob.track(0, 64, complete_cycle=5, is_store=True)
        mob.track(64, 64, complete_cycle=70, is_store=False)
        entries = list(mob._entries)
        mob.track(128, 64, complete_cycle=2e9, is_store=True)
        assert mob._entries[:2] == entries and len(mob._entries) == 3
        assert mob.outstanding(cycle=0) == 3
        assert mob.outstanding(cycle=60) == 2

    def test_capacity_bound(self):
        mob = MemoryOrderingBuffer(capacity=4)
        for i in range(10):
            mob.track(i * 64, 64, complete_cycle=1000 + i, is_store=True)
        assert mob.outstanding(cycle=0) <= 4

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            MemoryOrderingBuffer(capacity=0)
