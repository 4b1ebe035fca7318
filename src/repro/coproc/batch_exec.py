"""Batch-execute backend: opcode-grouped dispatch and commit kernels.

The oracle (``WindowScan`` in :mod:`repro.validation.reference_engine`)
dispatches one lane-operation at a time: an age-order Python loop that, per
entry, re-checks budgets, renaming, the store queue, then issues and books
metrics individually — "the reference scan" below.  This backend
restructures each cycle into two passes:

1. **Plan** — a side-effect-free walk of the ready candidates that mirrors
   the reference scan's decision sequence exactly (issue budgets, renamer
   availability and the STQ occupancy are tracked as local shadow counters;
   each is provably decremented by exactly one per accepted entry, so the
   shadow stays equal to the state the reference loop would observe).  The
   walk groups accepted entries by opcode class: short-latency computes,
   long-latency computes, and memory ops (kept in strict age order — they
   touch the shared MOB/bandwidth state).
2. **Apply** — each group executes as one bulk operation: a single batched
   register allocation, one tight loop stamping the group's common
   completion cycle, and one aggregated metrics update per group instead of
   one per uop.

**Segments.**  The plan/apply split is only valid while nothing an
accepted entry does can change a *later* planning decision within the same
scan.  One thing can: a **zero-byte memory access** — the only same-cycle
completion in the machine (every compute takes ``compute_latency >= 1``
cycles, enforced where configs are built) — wakes a younger dependant
mid-scan, which the reference loop observes as it walks past it.  The
planner therefore ends a plan *segment* right after a zero-byte access,
applies it, and plans the rest of the window afresh from the pool's ready
index filtered to younger sequence numbers (older skipped entries are not
revisited by the reference either).

The backend is the engine's one dispatch path and is bit-identical to
``WindowScan``'s per-uop loop under every sharing mode — the differential
fuzzer diffs the two engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.coproc.dynamic import DynamicInstruction, EntryKind, EntryState
from repro.coproc.metrics import StallReason


@dataclass
class BatchPlan:
    """One core-cycle's planned dispatch, grouped by opcode class."""

    short_compute: List[DynamicInstruction] = field(default_factory=list)
    long_compute: List[DynamicInstruction] = field(default_factory=list)
    #: Memory ops in scan (age) order — MOB and bandwidth-regulator state
    #: is order-sensitive, so these never reorder within the group.
    memory: List[DynamicInstruction] = field(default_factory=list)
    allocations: int = 0
    rename_failed: bool = False
    blocked: Optional[StallReason] = None
    #: The segment ends at a zero-byte memory access (the last of
    #: ``memory``): the rest of the window is planned after applying it.
    cut: bool = False

    @property
    def dispatched(self) -> int:
        return len(self.short_compute) + len(self.long_compute) + len(self.memory)


class BatchExecutor:
    """Opcode-grouped dispatch/commit engine for a fast co-processor.

    Holds only its attribution counters; the co-processor it serves is
    passed per call (no back-pointer, so a finished machine is freed by
    reference count).
    """

    def __init__(self) -> None:
        # Imported here: coprocessor.py imports this module at its top, so a
        # module-level import back would hit a half-initialised module.
        from repro.coproc.coprocessor import COMMIT_WIDTH, LONG_LATENCY

        self._commit_width = COMMIT_WIDTH
        self._long_latency = LONG_LATENCY
        #: Attribution counters surfaced through ``--profile`` and
        #: ``diff-fuzz``'s traffic table.
        self.batched_calls = 0
        self.batched_uops = 0
        self.plan_cuts = 0

    # --- dispatch ----------------------------------------------------------

    def dispatch_core(
        self, coproc, core: int, budget: Dict[str, int], cycle: int
    ) -> int:
        """Batched equivalent of the oracle's ``WindowScan.dispatch_core``."""
        pool = coproc.pools[core]
        if pool.empty:
            if coproc.core_active[core]:
                coproc.metrics.on_stall(core, StallReason.EMPTY, cycle)
            return 0
        self.batched_calls += 1
        scan = rest = pool.ready_dispatchable(cycle)
        dispatched = 0
        while True:
            plan = self._plan(coproc, core, rest, budget, cycle)
            dispatched += self._apply(coproc, core, pool, plan, budget, cycle)
            if not plan.cut:
                break
            self.plan_cuts += 1
            cut_seq = plan.memory[-1].seq
            rest = [e for e in pool.ready_dispatchable(cycle) if e.seq > cut_seq]
        if dispatched == 0:
            # No cut either (a cut dispatches its access): ``scan`` and
            # ``plan`` are the whole window's.
            coproc._attribute_zero_dispatch_stall(
                core, pool, scan, budget, plan.blocked, cycle
            )
            return 0
        self.batched_uops += dispatched
        return dispatched

    def _plan(
        self,
        coproc,
        core: int,
        scan: List[DynamicInstruction],
        budget: Dict[str, int],
        cycle: int,
    ) -> BatchPlan:
        """Mirror the reference scan's decisions without mutating anything.

        The only engine state touched is the idempotent STQ retirement
        inside :meth:`~repro.coproc.lsu.LoadStoreUnit.stq_occupancy`, which
        the reference loop performs identically via ``store_queue_full``.
        """
        plan = BatchPlan()
        compute_left = budget["compute"]
        ldst_left = budget["ldst"]
        avail = coproc.renamer.available(core)
        lsu = coproc.lsus[core]
        stq_used = lsu.stq_occupancy(cycle)
        stq_cap = lsu.store_queue_entries
        blocked: Optional[StallReason] = None
        for entry in scan:
            if compute_left <= 0 and ldst_left <= 0:
                blocked = blocked or StallReason.ISSUE_BUDGET
                break
            # ``entry.ready(cycle)`` holds for every index candidate, and no
            # plan decision can un-ready a later one, so the reference
            # loop's DEPENDENCY re-check is vacuous here.
            kind = entry.kind
            if kind is EntryKind.COMPUTE:
                if compute_left <= 0:
                    blocked = blocked or StallReason.ISSUE_BUDGET
                    continue
                if entry.writes_vreg:
                    if avail <= 0:
                        plan.rename_failed = True
                        blocked = StallReason.RENAME
                        break
                    avail -= 1
                    plan.allocations += 1
                compute_left -= 1
                if entry.long_latency:
                    plan.long_compute.append(entry)
                else:
                    plan.short_compute.append(entry)
            elif kind is EntryKind.LOAD or kind is EntryKind.STORE:
                if ldst_left <= 0:
                    blocked = blocked or StallReason.ISSUE_BUDGET
                    continue
                is_store = kind is EntryKind.STORE
                if is_store and stq_used >= stq_cap:
                    blocked = blocked or StallReason.STORE_QUEUE
                    continue
                if not is_store:
                    if avail <= 0:
                        plan.rename_failed = True
                        blocked = StallReason.RENAME
                        break
                    avail -= 1
                    plan.allocations += 1
                if is_store:
                    stq_used += 1
                ldst_left -= 1
                plan.memory.append(entry)
                if entry.nbytes <= 0:
                    # Zero-byte access: completes within this very cycle and
                    # can wake a younger dependant mid-scan.  End the
                    # segment here; the caller plans the rest after it.
                    plan.cut = True
                    break
            else:  # EM-SIMD entries never appear (the scan stops at them)
                raise SimulationError("EM-SIMD instruction in dispatch scan")
        plan.blocked = blocked
        return plan

    def _apply(
        self,
        coproc,
        core: int,
        pool,
        plan: BatchPlan,
        budget: Dict[str, int],
        cycle: int,
    ) -> int:
        """Execute the plan as bulk per-group operations.

        Call order differs from the reference loop (all computes before all
        memory ops), which is observationally equivalent: computes touch no
        memory state; ``on_issue`` heap pops order by ``(wake, seq)``
        regardless of push order and its pending-counter decrements
        commute; every completion lands strictly after ``cycle`` (latency
        >= 1 computes, non-zero-byte memory) except a zero-byte access,
        which is the segment's last entry, so no wake lands mid-segment.
        """
        metrics = coproc.metrics
        if plan.allocations:
            coproc.renamer.allocate_batch(core, plan.allocations)
        if plan.rename_failed:
            coproc.renamer.note_failed_allocation()
        dispatched = plan.dispatched
        if dispatched == 0:
            return 0
        for group, latency in (
            (plan.short_compute, coproc.config.vector.compute_latency),
            (plan.long_compute, self._long_latency),
        ):
            if not group:
                continue
            complete = cycle + latency
            total_flops = 0
            vls: List[int] = []
            for entry in group:
                entry.holds_phys_reg = entry.writes_vreg
                entry.state = EntryState.ISSUED
                entry.complete_cycle = complete
                total_flops += entry.flops
                vls.append(entry.vl_lanes)
                pool.on_issue(entry, cycle)
            metrics.on_compute_dispatch_batch(core, vls, total_flops, cycle)
        if plan.memory:
            lsu = coproc.lsus[core]
            for entry in plan.memory:
                is_store = entry.kind is EntryKind.STORE
                entry.holds_phys_reg = not is_store
                result = lsu.issue(entry.addr, entry.nbytes, cycle, is_store)
                entry.state = EntryState.ISSUED
                entry.complete_cycle = result.complete_cycle
                pool.on_issue(entry, cycle)
            metrics.on_ldst_dispatch_batch(core, len(plan.memory))
        budget["compute"] -= len(plan.short_compute) + len(plan.long_compute)
        budget["ldst"] -= len(plan.memory)
        return dispatched

    # --- commit ------------------------------------------------------------

    def commit_core(self, coproc, core: int, cycle: int) -> int:
        """Batched in-order commit: one bulk physical-register release for
        the whole committed prefix.  Returns the entries committed."""
        committed = coproc.pools[core].commit_ready(cycle, self._commit_width)
        if committed:
            holders = sum(1 for entry in committed if entry.holds_phys_reg)
            if holders:
                coproc.renamer.release_batch(core, holders)
        return len(committed)
