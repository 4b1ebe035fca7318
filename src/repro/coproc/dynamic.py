"""Dynamic instruction records and the per-core Instruction Pool.

A :class:`DynamicInstruction` is one *executed instance* of a static
instruction: it snapshots everything the co-processor needs for timing
(vector length at transmit, effective address, dependence edges).
Functional values are computed by the scalar core at transmit time — legal
because each core transmits in program order (§4.1.1) — so the co-processor
is purely a timing machine.

The :class:`InstructionPool` is the per-core in-flight window (Fig. 5's
Instruction Pool + ROB): entries enter at transmit, dispatch out of order
once ready, and commit in order from the head.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import ceil
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.isa.instructions import Instruction
from repro.isa.registers import SystemRegister


class EntryState(enum.Enum):
    WAITING = "waiting"
    ISSUED = "issued"
    DONE = "done"


class EntryKind(enum.Enum):
    COMPUTE = "compute"
    LOAD = "load"
    STORE = "store"
    EMSIMD = "emsimd"


@dataclass(slots=True)
class DynamicInstruction:
    """One in-flight instance of a transmitted vector/EM-SIMD instruction."""

    seq: int
    core: int
    kind: EntryKind
    instr: Instruction
    vl_lanes: int
    transmit_cycle: int
    deps: Tuple["DynamicInstruction", ...] = ()
    # Load/store fields.
    addr: int = 0
    nbytes: int = 0
    # Compute fields.
    flops: int = 0
    long_latency: bool = False
    writes_vreg: bool = False
    scalar_dst: Optional[str] = None
    # EM-SIMD fields.
    sysreg: Optional[SystemRegister] = None
    value: object = None
    # Progress.
    state: EntryState = EntryState.WAITING
    complete_cycle: float = 0.0
    holds_phys_reg: bool = False

    def ready(self, cycle: float) -> bool:
        """All source producers have completed by ``cycle``."""
        for dep in self.deps:
            if dep.state is EntryState.WAITING or dep.complete_cycle > cycle:
                return False
        return True

    def completed(self, cycle: float) -> bool:
        return self.state is not EntryState.WAITING and self.complete_cycle <= cycle


class InstructionPool:
    """Per-core in-flight window with in-order commit.

    The pool maintains an incrementally updated *ready set*: a wake-cycle
    heap of entries whose producers have all issued, promoted into an
    age-ordered ready list as their operands' completion cycles pass.
    Dispatch consumes :meth:`ready_dispatchable` instead of re-scanning the
    full window every cycle.  It also keeps a min-heap of issued entries'
    completion cycles, so :meth:`next_completion` costs O(log n) instead of
    a window scan.  Both are fed only by :meth:`push`, :meth:`on_issue` and
    :meth:`commit_ready`: an entry's state must not change behind them.
    (The window-scan pool these are property-tested against is
    ``repro.validation.reference_engine.ScanPool``.)
    """

    def __init__(self, core_id: int, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError("pool capacity must be positive")
        self.core_id = core_id
        self.capacity = capacity
        self._entries: List[DynamicInstruction] = []
        self.transmitted = 0
        self.committed = 0
        self._by_seq: Dict[int, DynamicInstruction] = {}
        self._dep_waiters: Dict[int, List[DynamicInstruction]] = {}
        self._pending_deps: Dict[int, int] = {}
        self._wake_at: Dict[int, int] = {}
        self._wake_heap: List[Tuple[int, int]] = []
        self._ready_seqs: List[int] = []
        self._waiting_seqs: List[int] = []
        self._emsimd_seqs: Deque[int] = deque()
        #: Completion cycles of issued entries (min-heap).  Stale only on
        #: one side: an entry that left the window completed at or before
        #: the cycle it committed, so pruning everything ``<= cycle`` drops
        #: exactly the values no query at ``cycle`` or later can return.
        self._completions: List[float] = []
        #: Highest cycle the heap has been pruned to; an earlier query
        #: cannot trust it and rebuilds.
        self._pruned_to: float = -1.0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def push(self, entry: DynamicInstruction) -> None:
        """Enqueue a freshly transmitted instruction (program order)."""
        if self.full:
            raise SimulationError(f"core {self.core_id}: pool overflow")
        self._entries.append(entry)
        self.transmitted += 1
        self._by_seq[entry.seq] = entry
        if entry.kind is EntryKind.EMSIMD:
            self._emsimd_seqs.append(entry.seq)
        elif entry.state is EntryState.WAITING:
            self._register(entry)

    def head(self) -> Optional[DynamicInstruction]:
        """The oldest in-flight instruction."""
        return self._entries[0] if self._entries else None

    def entries(self) -> List[DynamicInstruction]:
        """All in-flight entries, oldest first (read-only view for tools)."""
        return list(self._entries)

    def next_completion(self, cycle: float) -> Optional[float]:
        """Earliest future completion among already-issued entries.

        Next-event hook for the idle-cycle fast-forward: while no entry
        completes, a stalled window cannot commit, unblock dependants, free
        physical registers or drain for an EM-SIMD barrier.  Answered from
        the completion heap.
        """
        if cycle < self._pruned_to:
            self._rebuild_completions()
        heap = self._prune_completions(cycle)
        return heap[0] if heap else None

    def commit_ready(self, cycle: float, width: int) -> List[DynamicInstruction]:
        """Pop up to ``width`` completed entries from the head, in order:
        one prefix scan and a single slice delete."""
        entries = self._entries
        count = 0
        limit = min(width, len(entries))
        while count < limit:
            head = entries[count]
            if head.state is EntryState.WAITING or head.complete_cycle > cycle:
                break
            count += 1
        if count == 0:
            return []
        committed = entries[:count]
        del entries[:count]
        self.committed += count
        emsimd = self._emsimd_seqs
        for entry in committed:
            seq = entry.seq
            self._by_seq.pop(seq, None)
            self._dep_waiters.pop(seq, None)
            # Every producer of a committed entry issued before it did, so
            # no ``on_issue`` looks its ready-index keys up again.
            self._pending_deps.pop(seq, None)
            self._wake_at.pop(seq, None)
            if entry.kind is EntryKind.EMSIMD and emsimd and emsimd[0] == seq:
                emsimd.popleft()
        return committed

    # ------------------------------------------------------------------
    # Ready-set index (incremental dispatch candidates)
    # ------------------------------------------------------------------

    def _prune_completions(self, cycle: float) -> List[float]:
        """Drop completion cycles at or before ``cycle`` (completed, and
        possibly already committed, entries); returns the heap."""
        heap = self._completions
        while heap and heap[0] <= cycle:
            heappop(heap)
        if cycle > self._pruned_to:
            self._pruned_to = cycle
        return heap

    def on_issue(self, entry: DynamicInstruction, cycle: int) -> None:
        """Notify the index that ``entry`` moved WAITING→ISSUED (or, for the
        EM-SIMD head, WAITING→DONE) with its completion cycle assigned,
        waking any dependants it was blocking.  A dependant of a same-cycle
        completion (a zero-byte access) is ready at ``cycle`` itself: the
        next :meth:`ready_dispatchable` query returns it.
        """
        # Pruning on every push keeps the heap within the window size even
        # while nothing asks for the next completion (a busy stretch).  It is
        # :meth:`_prune_completions`, inlined: this runs once per uop.
        heap = self._completions
        while heap and heap[0] <= cycle:
            heappop(heap)
        if cycle > self._pruned_to:
            self._pruned_to = cycle
        heappush(heap, entry.complete_cycle)
        waiting = self._waiting_seqs
        pos = bisect_left(waiting, entry.seq)
        if pos < len(waiting) and waiting[pos] == entry.seq:
            waiting.pop(pos)
        waiters = self._dep_waiters.pop(entry.seq, None)
        if not waiters:
            return
        done = ceil(entry.complete_cycle)
        pending = self._pending_deps
        wake_at = self._wake_at
        for waiter in waiters:
            seq = waiter.seq
            left = pending.get(seq)
            if left is None:
                continue
            if done > wake_at[seq]:
                wake_at[seq] = done
            left -= 1
            pending[seq] = left
            if left == 0:
                heappush(self._wake_heap, (wake_at[seq], seq))

    def ready_dispatchable(self, cycle: int) -> List[DynamicInstruction]:
        """Dispatch candidates this cycle, oldest first, via the ready index.

        Invariant (property-tested): equals the ready entries of a
        from-scratch window scan (``ScanPool.dispatchable``).
        """
        heap = self._wake_heap
        ready = self._ready_seqs
        while heap and heap[0][0] <= cycle:
            seq = heappop(heap)[1]
            lo, hi = 0, len(ready)
            while lo < hi:
                mid = (lo + hi) // 2
                if ready[mid] < seq:
                    lo = mid + 1
                else:
                    hi = mid
            ready.insert(lo, seq)
        barrier = self._emsimd_seqs[0] if self._emsimd_seqs else None
        out: List[DynamicInstruction] = []
        stale: List[int] = []
        for seq in ready:
            if barrier is not None and seq > barrier:
                break
            entry = self._by_seq.get(seq)
            if entry is None or entry.state is not EntryState.WAITING:
                stale.append(seq)
                continue
            out.append(entry)
        for seq in stale:
            ready.remove(seq)
        return out

    def oldest_waiting_seq(self) -> Optional[int]:
        """Sequence number of the oldest dispatch-eligible WAITING entry.

        ``None`` iff no non-EM-SIMD entry before the EM-SIMD barrier is
        still WAITING (a window scan finds nothing eligible).  This gives the
        zero-dispatch path the reference scan's stall attribution anchor
        (whose reason leads the age-order scan) without walking the window.
        """
        barrier = self._emsimd_seqs[0] if self._emsimd_seqs else None
        waiting = self._waiting_seqs
        while waiting:
            seq = waiting[0]
            if barrier is not None and seq > barrier:
                return None
            entry = self._by_seq.get(seq)
            if entry is None or entry.state is not EntryState.WAITING:
                waiting.pop(0)  # stale: mutated behind the index's back
                continue
            return seq
        return None

    def _register(self, entry: DynamicInstruction) -> None:
        insort(self._waiting_seqs, entry.seq)
        pending = 0
        wake = 0
        for dep in entry.deps:
            if dep.state is EntryState.WAITING:
                pending += 1
                self._dep_waiters.setdefault(dep.seq, []).append(entry)
            else:
                done = ceil(dep.complete_cycle)
                if done > wake:
                    wake = done
        self._pending_deps[entry.seq] = pending
        self._wake_at[entry.seq] = wake
        if pending == 0:
            heappush(self._wake_heap, (wake, entry.seq))

    def _rebuild_completions(self) -> None:
        """Refill the completion heap from the window (a query went back
        past what the heap was pruned to)."""
        self._completions = [
            entry.complete_cycle
            for entry in self._entries
            if entry.state is not EntryState.WAITING
        ]
        heapify(self._completions)
        self._pruned_to = -1.0

    def pending_emsimd(self) -> int:
        """Number of EM-SIMD instructions still in flight (for MRS sync)."""
        return len(self._emsimd_seqs)
