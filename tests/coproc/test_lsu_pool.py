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
from repro.coproc.lsu import LoadStoreUnit
from repro.isa.instructions import MSR
from repro.isa.operands import Imm
from repro.isa.registers import SystemRegister
from repro.memory.hierarchy import VectorMemorySystem
from repro.validation.reference_engine import ScanPool, store_queue_full


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
    def _lsu(self, stq=4):
        return LoadStoreUnit(0, VectorMemorySystem(MemoryConfig()), store_queue_entries=stq)

    def test_issue_counts_traffic(self):
        lsu = self._lsu()
        lsu.issue(0, 128, 0, is_store=False)
        lsu.issue(0, 64, 10, is_store=True)
        assert lsu.stats.loads == 1
        assert lsu.stats.stores == 1
        assert lsu.stats.bytes_loaded == 128
        assert lsu.stats.bytes_stored == 64

    def test_store_queue_fills_and_drains(self):
        lsu = self._lsu(stq=2)
        lsu.issue(0, 64, 0, is_store=True)
        lsu.issue(64, 64, 0, is_store=True)
        assert lsu.stq_occupancy(cycle=1) == 2
        completion = max(
            lsu.issue(0, 0, 0, is_store=False).complete_cycle, 400.0
        )
        assert lsu.stq_occupancy(cycle=completion + 1) == 0

    def test_oracle_store_queue_full(self):
        lsu = self._lsu(stq=2)
        store = lsu.issue(0, 64, 0, is_store=True)
        assert not store_queue_full(lsu, cycle=1)
        lsu.issue(64, 64, 0, is_store=True)
        assert store_queue_full(lsu, cycle=1)
        assert not store_queue_full(lsu, cycle=store.complete_cycle)

    def test_mob_orders_load_after_store(self):
        lsu = self._lsu()
        store = lsu.issue(0, 64, 0, is_store=True)
        load = lsu.issue(0, 64, 1, is_store=False)
        assert load.complete_cycle >= store.complete_cycle

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            self._lsu().issue(0, -1, 0, is_store=False)
