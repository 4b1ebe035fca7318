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
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import ceil
from operator import attrgetter
from typing import Deque, List, Optional, Tuple

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


# Module-level aliases: an enum member read through its class is a
# descriptor call, paid on every per-uop test.
_EMSIMD = EntryKind.EMSIMD
_WAITING = EntryState.WAITING


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
    # Readiness, kept by the fast engine's InstructionPool: producers not
    # yet issued, the cycle the issued ones' results are all in, and the
    # younger entries waiting on this one to issue.
    pending: int = field(default=0, compare=False, repr=False)
    wake: int = field(default=0, compare=False, repr=False)
    waiters: Optional[List["DynamicInstruction"]] = field(
        default=None, compare=False, repr=False
    )

    def ready(self, cycle: float) -> bool:
        """All source producers have completed by ``cycle``."""
        for dep in self.deps:
            if dep.state is _WAITING or dep.complete_cycle > cycle:
                return False
        return True

    def completed(self, cycle: float) -> bool:
        return self.state is not _WAITING and self.complete_cycle <= cycle


_SEQ = attrgetter("seq")


class InstructionPool:
    """Per-core in-flight window with in-order commit.

    The pool maintains an incrementally updated *ready set*: a wake-cycle
    heap of entries whose producers have all issued, promoted into an
    age-ordered ready list as their operands' completion cycles pass.
    Dispatch consumes :meth:`ready_dispatchable` instead of re-scanning the
    full window every cycle.  Each entry carries its own readiness
    (``pending``, ``wake``, ``waiters``), so the index holds entries, never
    per-sequence-number tables, and nothing outlives the window.  It is fed
    only by :meth:`push`, :meth:`on_issue` and :meth:`commit_ready`: an
    entry's state must not change behind them.  (The window-scan pool it
    is property-tested against is
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
        #: ``(wake, seq, entry)`` of entries whose producers have all issued.
        self._wake_heap: List[Tuple[int, int, DynamicInstruction]] = []
        #: Entries whose wake has passed, oldest first.
        self._ready: List[DynamicInstruction] = []
        #: Every indexed entry in program order, trimmed from the front
        #: (:meth:`oldest_waiting_seq`, :meth:`commit_ready`).
        self._waiting: Deque[DynamicInstruction] = deque()
        self._emsimd_seqs: Deque[int] = deque()

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
        entries = self._entries
        if len(entries) >= self.capacity:
            raise SimulationError(f"core {self.core_id}: pool overflow")
        entries.append(entry)
        self.transmitted += 1
        if entry.kind is _EMSIMD:
            self._emsimd_seqs.append(entry.seq)
        elif entry.state is _WAITING:
            self._waiting.append(entry)
            pending = 0
            wake = 0
            for dep in entry.deps:
                if dep.state is _WAITING:
                    pending += 1
                    waiters = dep.waiters
                    if waiters is None:
                        dep.waiters = [entry]
                    else:
                        waiters.append(entry)
                else:
                    done = ceil(dep.complete_cycle)
                    if done > wake:
                        wake = done
            entry.pending = pending
            entry.wake = wake
            if pending == 0:
                heappush(self._wake_heap, (wake, entry.seq, entry))

    def head(self) -> Optional[DynamicInstruction]:
        """The oldest in-flight instruction."""
        return self._entries[0] if self._entries else None

    def entries(self) -> List[DynamicInstruction]:
        """All in-flight entries, oldest first (read-only view for tools)."""
        return list(self._entries)

    def next_completion(self, cycle: float) -> Optional[float]:
        """Earliest future completion among already-issued entries (a
        window scan: only the deadlock check asks)."""
        return min(
            (
                entry.complete_cycle
                for entry in self._entries
                if entry.state is not _WAITING
                and entry.complete_cycle > cycle
            ),
            default=None,
        )

    def commit_ready(self, cycle: float, width: int) -> List[DynamicInstruction]:
        """Pop up to ``width`` completed entries from the head, in order:
        one prefix scan and a single slice delete."""
        entries = self._entries
        count = 0
        limit = min(width, len(entries))
        while count < limit:
            head = entries[count]
            if head.state is _WAITING or head.complete_cycle > cycle:
                break
            count += 1
        if count == 0:
            return []
        committed = entries[:count]
        del entries[:count]
        self.committed += count
        # The index forgets the committed prefix: it holds window entries only.
        last = committed[-1].seq
        del self._ready[: bisect_right(self._ready, last, key=_SEQ)]
        waiting = self._waiting
        while waiting and waiting[0].seq <= last:
            waiting.popleft()
        emsimd = self._emsimd_seqs
        while emsimd and emsimd[0] <= last:
            emsimd.popleft()
        return committed

    # ------------------------------------------------------------------
    # Ready-set index (incremental dispatch candidates)
    # ------------------------------------------------------------------

    def on_issue(self, entry: DynamicInstruction, cycle: int) -> None:
        """Notify the index that ``entry`` moved WAITING→ISSUED (or, for the
        EM-SIMD head, WAITING→DONE) with its completion cycle assigned,
        waking any dependants it was blocking.  A dependant of a same-cycle
        completion (a zero-byte access) is ready at ``cycle`` itself: the
        next :meth:`ready_dispatchable` query returns it.
        """
        waiters = entry.waiters
        if not waiters:
            return
        entry.waiters = None
        done = ceil(entry.complete_cycle)
        heap = self._wake_heap
        for waiter in waiters:
            if done > waiter.wake:
                waiter.wake = done
            waiter.pending -= 1
            if waiter.pending == 0:
                heappush(heap, (waiter.wake, waiter.seq, waiter))

    def ready_dispatchable(self, cycle: int) -> List[DynamicInstruction]:
        """Dispatch candidates this cycle, oldest first, via the ready index.

        Invariant (property-tested): equals the ready entries of a
        from-scratch window scan (``ScanPool.dispatchable``).
        """
        heap = self._wake_heap
        ready = self._ready
        while heap and heap[0][0] <= cycle:
            insort(ready, heappop(heap)[2], key=_SEQ)
        if not ready:
            return []
        out = [entry for entry in ready if entry.state is _WAITING]
        if len(out) != len(ready):
            ready[:] = out  # issued entries leave the index
        if self._emsimd_seqs and out:
            # Nothing younger than the oldest in-flight EM-SIMD dispatches.
            barrier = self._emsimd_seqs[0]
            if out[-1].seq > barrier:
                out = [entry for entry in out if entry.seq < barrier]
        return out

    def oldest_waiting_seq(self) -> Optional[int]:
        """Sequence number of the oldest dispatch-eligible WAITING entry.

        ``None`` iff no non-EM-SIMD entry before the EM-SIMD barrier is
        still WAITING (a window scan finds nothing eligible).  This gives the
        zero-dispatch path the reference scan's stall attribution anchor
        (whose reason leads the age-order scan) without walking the window.
        """
        barrier = self._emsimd_seqs[0] if self._emsimd_seqs else None
        waiting = self._waiting
        while waiting:
            entry = waiting[0]
            if barrier is not None and entry.seq > barrier:
                return None
            if entry.state is _WAITING:
                return entry.seq
            waiting.popleft()  # issued: it never waits again
        return None

    def pending_emsimd(self) -> int:
        """Number of EM-SIMD instructions still in flight (for MRS sync)."""
        return len(self._emsimd_seqs)
