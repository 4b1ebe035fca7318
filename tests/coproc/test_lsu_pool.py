"""Load/store unit and instruction pool behaviour."""

import pytest

from repro.common.config import MemoryConfig
from repro.common.errors import SimulationError
from repro.coproc.dynamic import (
    DynamicInstruction,
    EntryKind,
    EntryState,
    InstructionPool,
)
from repro.coproc.batch_exec import _issue_memory
from repro.coproc.lsu import LoadStoreUnit
from repro.isa.instructions import MSR
from repro.isa.operands import Imm
from repro.isa.registers import SystemRegister
from repro.memory.hierarchy import VectorMemorySystem
from repro.validation.reference_engine import ScanPool, issue, store_queue_full


def entry(seq, kind=EntryKind.COMPUTE, core=0, **kw):
    instr = MSR(SystemRegister.OI, Imm(0)) if kind is EntryKind.EMSIMD else None
    return DynamicInstruction(
        seq=seq, core=core, kind=kind, instr=instr, vl_lanes=8, transmit_cycle=0,
        sysreg=SystemRegister.OI if kind is EntryKind.EMSIMD else None, **kw
    )


class TestInstructionPool:
    def test_fifo_and_capacity(self):
        pool = InstructionPool(0, capacity=2)
        pool.push(entry(1))
        pool.push(entry(2))
        assert pool.full
        with pytest.raises(SimulationError):
            pool.push(entry(3))

    def test_commit_in_order_only(self):
        pool = InstructionPool(0, capacity=4)
        first, second = entry(1), entry(2)
        pool.push(first)
        pool.push(second)
        second.state = EntryState.ISSUED
        second.complete_cycle = 1
        # The head is still WAITING: nothing commits.
        assert pool.commit_ready(cycle=10, width=4) == []
        first.state = EntryState.ISSUED
        first.complete_cycle = 5
        committed = pool.commit_ready(cycle=10, width=4)
        assert [e.seq for e in committed] == [1, 2]
        assert pool.empty

    def test_commit_width_bound(self):
        pool = InstructionPool(0, capacity=8)
        entries = [entry(i) for i in range(6)]
        for e in entries:
            pool.push(e)
            e.state = EntryState.ISSUED
            e.complete_cycle = 0
        assert len(pool.commit_ready(cycle=1, width=4)) == 4

    def test_dispatchable_stops_at_emsimd_barrier(self):
        pool = ScanPool(0, capacity=8)
        pool.push(entry(1))
        pool.push(entry(2, kind=EntryKind.EMSIMD))
        pool.push(entry(3))
        eligible = [e.seq for e in pool.dispatchable()]
        assert eligible == [1]

    def test_pending_emsimd(self):
        pool = InstructionPool(0, capacity=8)
        pool.push(entry(1, kind=EntryKind.EMSIMD))
        assert pool.pending_emsimd() == 1

    def test_ready_depends_on_producers(self):
        producer = entry(1)
        consumer = entry(2, deps=(producer,))
        assert not consumer.ready(cycle=0)
        producer.state = EntryState.ISSUED
        producer.complete_cycle = 10
        assert not consumer.ready(cycle=5)
        assert consumer.ready(cycle=10)


class TestScanPool:
    """The oracle's list-walk pool commits on its own, entry by entry."""

    def test_commit_in_order_only(self):
        pool = ScanPool(0, capacity=4)
        first, second = entry(1), entry(2)
        pool.push(first)
        pool.push(second)
        second.state = EntryState.ISSUED
        second.complete_cycle = 1
        assert pool.commit_ready(cycle=10, width=4) == []
        first.state = EntryState.ISSUED
        first.complete_cycle = 5
        assert [e.seq for e in pool.commit_ready(cycle=10, width=4)] == [1, 2]
        assert pool.empty
        assert pool.committed == pool.transmitted == 2

    def test_commit_width_and_completion_bound(self):
        pool = ScanPool(0, capacity=8)
        for seq, done in enumerate((0, 0, 0, 9, 0)):
            e = entry(seq)
            e.state = EntryState.ISSUED
            e.complete_cycle = done
            pool.push(e)
        assert [e.seq for e in pool.commit_ready(cycle=1, width=2)] == [0, 1]
        # The head completes only at cycle 9: it blocks the younger entry.
        assert [e.seq for e in pool.commit_ready(cycle=1, width=8)] == [2]
        assert [e.seq for e in pool.commit_ready(cycle=9, width=8)] == [3, 4]

    def test_pending_emsimd_and_overflow(self):
        pool = ScanPool(0, capacity=2)
        pool.push(entry(1, kind=EntryKind.EMSIMD))
        pool.push(entry(2))
        assert pool.pending_emsimd() == 1 and pool.full
        with pytest.raises(SimulationError):
            pool.push(entry(3))


class TestLoadStoreUnit:
    """The oracle's per-uop ``issue`` against one LSU, and the dispatch
    walk's ``_issue_memory`` beside it."""

    def _lsu(self, stq=4):
        return LoadStoreUnit(0, VectorMemorySystem(MemoryConfig()), store_queue_entries=stq)

    def test_issue_counts_traffic(self):
        lsu = self._lsu()
        issue(lsu, 0, 128, 0, is_store=False)
        issue(lsu, 0, 64, 10, is_store=True)
        assert lsu.stats.loads == 1
        assert lsu.stats.stores == 1
        assert lsu.stats.bytes_loaded == 128
        assert lsu.stats.bytes_stored == 64

    def test_store_queue_fills_and_drains(self):
        lsu = self._lsu(stq=2)
        issue(lsu, 0, 64, 0, is_store=True)
        issue(lsu, 64, 64, 0, is_store=True)
        assert lsu.stq_occupancy(cycle=1) == 2
        completion = max(
            issue(lsu, 0, 0, 0, is_store=False).complete_cycle, 400.0
        )
        assert lsu.stq_occupancy(cycle=completion + 1) == 0

    def test_oracle_store_queue_full(self):
        lsu = self._lsu(stq=2)
        store = issue(lsu, 0, 64, 0, is_store=True)
        assert not store_queue_full(lsu, cycle=1)
        issue(lsu, 64, 64, 0, is_store=True)
        assert store_queue_full(lsu, cycle=1)
        assert not store_queue_full(lsu, cycle=store.complete_cycle)

    def test_mob_orders_load_after_store(self):
        lsu = self._lsu()
        store = issue(lsu, 0, 64, 0, is_store=True)
        load = issue(lsu, 0, 64, 1, is_store=False)
        assert load.complete_cycle >= store.complete_cycle

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            issue(self._lsu(), 0, -1, 0, is_store=False)

    def test_walk_issue_matches_the_oracle(self):
        """Same accesses, same LSUs: completions, STQ and stats agree."""
        fast, slow = self._lsu(stq=8), self._lsu(stq=8)
        accesses = [
            (addr, nbytes, cycle, is_store)
            for cycle in range(0, 60, 3)
            for addr, nbytes, is_store in (
                (cycle * 40 % 512, 128, False),
                (cycle * 24 % 384, 64, True),
                (cycle * 8 % 256, 0, cycle % 2 == 0),
            )
        ]
        for addr, nbytes, cycle, is_store in accesses:
            assert _issue_memory(fast, addr, nbytes, cycle, is_store) == issue(
                slow, addr, nbytes, cycle, is_store
            ).complete_cycle
        assert list(fast._store_queue) == list(slow._store_queue)
        assert fast.stats == slow.stats and fast.stats.stores > 0
