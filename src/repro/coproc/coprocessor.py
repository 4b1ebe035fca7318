"""The co-processor engine: per-cycle dispatch, execute, commit (§4.2).

The engine is a pure *timing* machine — functional values were already
computed by the scalar cores at transmit time (legal because transmission
is in program order per core).  Each cycle it:

1. commits completed instructions in order from each pool head, returning
   physical registers to the renamer;
2. executes at most one EM-SIMD instruction per core at its pool head —
   ``MSR <VL>`` only once the core's SIMD pipeline is drained (which the
   in-order commit guarantees when the MSR reaches the head);
3. dispatches ready SVE uops out of order within each pool window, bounded
   by the compute/ld-st issue budgets, the renamer freelist, the store
   queue and — under temporal sharing — a *global* budget shared by all
   cores (one full-width uop occupies every lane pipe).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Dict, List, Optional

from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.coproc.batch_exec import BatchExecutor
from repro.coproc.dynamic import DynamicInstruction, EntryKind, EntryState, InstructionPool
from repro.coproc.lsu import LoadStoreUnit
from repro.coproc.metrics import Metrics, StallReason
from repro.coproc.renamer import Renamer
from repro.coproc.resource_table import ResourceTable
from repro.coproc.sharing import SharingMode  # re-exported: the old import path
from repro.isa.registers import OIValue, SystemRegister
from repro.memory.hierarchy import VectorMemorySystem

#: Instructions committed per core per cycle.
COMMIT_WIDTH = 8

#: Latency of a long-latency vector op (div/sqrt), in cycles.
LONG_LATENCY = 12

_CTS = SharingMode.COARSE_TEMPORAL
_TEMPORAL = SharingMode.TEMPORAL
_EMPTY = StallReason.EMPTY
_DEPENDENCY = StallReason.DEPENDENCY
_RENAME = StallReason.RENAME
_ISSUE_BUDGET = StallReason.ISSUE_BUDGET


class CoProcessor:
    """The shared SIMD co-processor serving ``config.num_cores`` cores."""

    #: The memory hierarchy a co-processor is built with.
    memory_class = VectorMemorySystem

    def __init__(
        self,
        config: MachineConfig,
        mode: SharingMode,
        metrics: Metrics,
        lane_manager: "LaneManagerProtocol",
    ) -> None:
        self.config = config
        self.mode = mode
        self.metrics = metrics
        self.lane_manager = lane_manager
        num_cores = config.num_cores
        self.resource_table = ResourceTable(num_cores, config.vector.total_lanes)
        self.renamer = Renamer(
            config.vector, num_cores, shared=(mode is SharingMode.TEMPORAL)
        )
        self.memory = self.memory_class(config.memory)
        self.lsus = [
            LoadStoreUnit(c, self.memory, config.core.store_queue_entries)
            for c in range(num_cores)
        ]
        self.pools = [
            InstructionPool(c, config.core.instruction_pool_entries)
            for c in range(num_cores)
        ]
        #: Dispatch/commit backend: one age-order pass over each pool's
        #: incrementally maintained ready set.
        self._batch = BatchExecutor()
        self.core_active = [True] * num_cores
        #: The cores a bare :meth:`step` walks.
        self._every_core = list(range(num_cores))
        #: Program-order sequence numbers, shared by every core's transmits
        #: (a C-level counter: one call per transmitted instruction).
        self.next_seq = itertools.count(1).__next__
        self._rotate = 0
        #: Tickless-scheduler callback: invoked with the current cycle when a
        #: CTS ownership switch fires while components are asleep, so the
        #: machine can settle and wake them *before* the dispatch phase runs
        #: (the switch changes sleepers' per-cycle stall attribution).
        self.wake_all_hook = None
        # Coarse-temporal (CTS) arbitration state.
        self._cts_owner = 0
        self._cts_until = config.vector.cts_quantum
        self._cts_blocked_until = 0
        self.cts_switches = 0

    # --- scalar-core-facing interface -------------------------------------

    def can_transmit(self, core: int) -> bool:
        """True when core ``core`` may transmit one more instruction."""
        return not self.pools[core].full

    def transmit(self, entry: DynamicInstruction) -> None:
        """Enqueue a retired vector/EM-SIMD instruction (program order)."""
        self.pools[entry.core].push(entry)

    def pending_emsimd(self, core: int) -> int:
        """In-flight EM-SIMD instructions of ``core`` (MRS sync, §4.1.1)."""
        return self.pools[core].pending_emsimd()

    def read_sysreg(self, core: int, sysreg: SystemRegister) -> object:
        """Architectural read of a dedicated register (MRS)."""
        return self.resource_table.read(core, sysreg)

    def configured_vl(self, core: int) -> int:
        """Current ``<VL>`` of ``core`` in lanes."""
        return self.resource_table.vl(core)

    def drained(self, core: int) -> bool:
        """True when core ``core`` has no in-flight vector instructions."""
        return self.pools[core].empty

    def set_core_active(self, core: int, active: bool) -> None:
        self.core_active[core] = active

    # --- idle-cycle fast-forward hooks -------------------------------------

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which the engine's state can change.

        Valid only immediately after a zero-progress :meth:`step`: with
        nothing dispatched, executed or committed this cycle, the engine is
        frozen until (a) an issued instruction completes, (b) a queued store
        retires from an STQ, or (c) — under coarse temporal sharing — the
        ownership quantum expires or the hand-over drain ends.  Returns the
        first integer cycle at which any of those occur, or ``None`` when no
        event is pending (the machine is deadlocked).
        """
        nxt = math.inf
        for pool in self.pools:
            completion = pool.next_completion(cycle)
            if completion is not None and completion < nxt:
                nxt = completion
        for lsu in self.lsus:
            retire = lsu.next_store_retire(cycle)
            if retire is not None and retire < nxt:
                nxt = retire
        if self.mode is SharingMode.COARSE_TEMPORAL:
            for boundary in (self._cts_blocked_until, self._cts_until):
                if cycle < boundary < nxt:
                    nxt = boundary
        if nxt is math.inf:
            return None
        return int(math.ceil(nxt))

    def skip_idle_cycles(self, cycles: int) -> None:
        """Account for ``cycles`` cycles run without :meth:`_dispatch`.

        The only engine state the per-cycle loop mutates during an idle
        cycle is the dispatch-fairness rotation (advanced once per
        :meth:`_dispatch` in the spatial/temporal modes); replay it so a
        fast-forwarded run stays bit-identical to the cycle-by-cycle one.
        The lone-core body (``Machine._run_lone``) replays it here for the
        cycles it steps too: with one core dispatching, no order reads it.
        """
        if cycles <= 0:
            return
        if self.mode is not _CTS:
            self._rotate = (self._rotate + cycles) % self.config.num_cores

    # --- per-cycle engine ---------------------------------------------------

    def step(self, cycle: int) -> int:
        """Advance every core one cycle; returns the number of events.

        The phase order of one co-processor cycle — commit, EM-SIMD,
        dispatch — as ``Machine.step`` and the oracle run it.  The
        tickless run loop runs the same phases itself, over its awake
        cores only (``Machine._step_fast``), or over its one awake core
        (``Machine._run_lone``).
        """
        cores = self._every_core
        events = 0
        for core in cores:
            events += self._batch.commit_core(self, core, cycle)
        for core in cores:
            head = self.pools[core].head()
            if (
                head is not None
                and head.kind is EntryKind.EMSIMD
                and head.state is EntryState.WAITING
            ):
                self._execute_emsimd(core, head, cycle)
                events += 1
        events += self._dispatch(cycle, cores, [0] * len(cores))
        return events

    def _execute_emsimd(self, core: int, head: DynamicInstruction, cycle: int) -> None:
        """Execute ``core``'s WAITING EM-SIMD pool head (at most one per
        core per cycle)."""
        # The head being EM-SIMD means every older instruction committed:
        # the core's SIMD pipeline is drained (in-order commit).
        if head.sysreg is SystemRegister.OI:
            self._apply_oi(core, head, cycle)
        elif head.sysreg is SystemRegister.VL:
            self._apply_vl(core, head, cycle)
        else:
            raise SimulationError(f"MSR to read-only register {head.sysreg}")
        head.state = EntryState.DONE
        head.complete_cycle = cycle + 1
        self.pools[core].on_issue(head, cycle)

    def _apply_oi(self, core: int, entry: DynamicInstruction, cycle: int) -> None:
        oi = entry.value
        if not isinstance(oi, OIValue):
            raise SimulationError(f"MSR <OI> needs an OIValue, got {oi!r}")
        self.resource_table.set_oi(core, oi)
        self.metrics.on_phase_marker(core, oi, cycle, self.resource_table.vl(core))
        decisions = self.lane_manager.on_phase_change(self.resource_table, cycle)
        for decided_core, lanes in decisions.items():
            self.resource_table.set_decision(decided_core, lanes)

    def _apply_vl(self, core: int, entry: DynamicInstruction, cycle: int) -> None:
        lanes = int(entry.value)  # type: ignore[arg-type]
        if self.mode is not SharingMode.SPATIAL:
            # Full-width time multiplexing: every core sees all lanes.
            self.resource_table.force_vl(core, lanes)
            self.metrics.on_lane_change(core, lanes, cycle)
            self.metrics.on_reconfig(core, success=True)
            return
        success = self.resource_table.apply_vl(core, lanes)
        if success:
            self.metrics.on_lane_change(core, lanes, cycle)
        self.metrics.on_reconfig(core, success)

    def _cts_arbitrate(self, cycle: int) -> Optional[int]:
        """Coarse-temporal ownership: rotate at quantum expiry or when the
        owner has nothing in flight; each hand-over pays the drain/restore
        penalty.  Returns the core allowed to dispatch this cycle."""
        if cycle < self._cts_blocked_until:
            return None  # still draining/restoring from the last hand-over
        owner = self._cts_owner
        if cycle < self._cts_until and not self.pools[owner].empty:
            return owner  # has work and its quantum has not expired
        next_owner = next(
            (
                core
                for core, pool in enumerate(self.pools)
                if core != owner and not pool.empty
            ),
            None,
        )
        if next_owner is not None:
            self._cts_owner = next_owner
            penalty = self.config.vector.cts_switch_penalty
            # The quantum starts once the hand-over drain completes, so a
            # penalty longer than the quantum cannot ping-pong ownership.
            self._cts_until = cycle + penalty + self.config.vector.cts_quantum
            self._cts_blocked_until = cycle + penalty
            self.cts_switches += 1
        if cycle < self._cts_blocked_until:
            return None  # draining/restoring contexts
        return self._cts_owner

    def _dispatch(self, cycle: int, active: List[int], core_events: List[int]) -> int:
        """Dispatch phase over the sorted ``active`` cores, adding each
        core's issued uops to ``core_events``.  Cores absent from it are
        asleep or done (an empty pool and an inactive core flag: no-ops)."""
        vector = self.config.vector
        dispatch_core = self._batch.dispatch_core
        dispatched = 0
        if self.mode is _CTS:
            switches_before = self.cts_switches
            owner = self._cts_arbitrate(cycle)
            if (
                self.cts_switches != switches_before
                and self.wake_all_hook is not None
            ):
                # An ownership switch changes sleepers' per-cycle stall
                # attribution from this very cycle on: settle and wake them
                # before dispatching.
                self.wake_all_hook(cycle)
            # The mid-cycle wake inserts the woken cores into ``active`` (via
            # the machine's settle path), so iterate it only afterwards.
            for core in active:
                if core == owner:
                    budget = {
                        "compute": vector.compute_issue_width,
                        "ldst": vector.ldst_issue_width,
                    }
                    issued = dispatch_core(self, core, budget, cycle)
                    core_events[core] += issued
                    dispatched += issued
                elif not self.pools[core].empty:
                    self.metrics.on_stall(core, _ISSUE_BUDGET, cycle)
                elif self.core_active[core]:
                    self.metrics.on_stall(core, _EMPTY, cycle)
            return dispatched
        compute_width = vector.compute_issue_width
        ldst_width = vector.ldst_issue_width
        # Temporal sharing draws every core from one budget; the spatial
        # modes give each core its own, built as its turn comes.
        shared_budget = (
            {"compute": compute_width, "ldst": ldst_width}
            if self.mode is _TEMPORAL
            else None
        )
        # Dispatch priority rotates for fairness: ``rotate, rotate+1, ...``
        # (mod ``num_cores``) filtered to the sorted ``active`` cores (the
        # dropped cores are dispatch no-ops: asleep cores are skipped and
        # done/absent cores have empty pools and an inactive core flag).
        self._rotate = rotate = (self._rotate + 1) % self.config.num_cores
        order = active
        if len(active) > 1:
            start = bisect_left(active, rotate)
            if start:
                order = active[start:] + active[:start]
        for core in order:
            budget = shared_budget or {"compute": compute_width, "ldst": ldst_width}
            issued = dispatch_core(self, core, budget, cycle)
            core_events[core] += issued
            dispatched += issued
        return dispatched

    def _attribute_zero_dispatch_stall(
        self,
        core: int,
        pool: InstructionPool,
        scan: List[DynamicInstruction],
        budget: Dict[str, int],
        blocked: Optional[StallReason],
        cycle: int,
    ) -> None:
        """Stall attribution after a walk over a non-empty ready list
        issued nothing (``dispatch_core`` books an empty list inline).

        Reconstructs the reason a per-uop age-order scan of the whole
        window reports (its first blocked reason; the oracle's
        ``WindowScan`` in :mod:`repro.validation.reference_engine` is that
        scan).  With zero dispatches the budgets never moved, so the window
        scan's reason is anchored at the oldest dispatchable entry: a
        both-budgets-exhausted break there, DEPENDENCY if it is not ready,
        else the ready-index scan's own first reason (the oldest
        dispatchable entry *is* ``scan[0]``, and both scans visit the same
        ready entries in the same order with the same budget state).  A
        RENAME failure overrides unconditionally in both scans at the same
        (first ready renaming) entry.  At zero dispatches the one-pass walk
        has neither mutated budgets nor re-queried after a zero-byte
        access, so ``scan`` is the whole window's ready list.  A ready entry
        means the head is no EM-SIMD barrier (the list stops at it).
        """
        if blocked is not _RENAME:
            if budget["compute"] <= 0 and budget["ldst"] <= 0:
                blocked = _ISSUE_BUDGET
            elif scan[0].seq != pool.oldest_waiting_seq():
                blocked = _DEPENDENCY
        if blocked is not None:
            self.metrics.on_stall(core, blocked, cycle)


class LaneManagerProtocol:
    """Duck-typed interface the engine expects from a lane manager."""

    def on_phase_change(
        self, table: ResourceTable, cycle: int
    ) -> Dict[int, int]:  # pragma: no cover - interface only
        raise NotImplementedError
