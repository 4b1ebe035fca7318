"""Batch-execute backend: one-pass dispatch and bulk commit kernels.

The oracle (``WindowScan`` in :mod:`repro.validation.reference_engine`)
dispatches one lane-operation at a time over the whole window: an
age-order Python loop that, per entry, re-checks readiness, budgets,
renaming and the store queue, then issues and books metrics individually
— "the reference scan" below.  This backend walks only the pool's ready
index (``ready_dispatchable``), in the same age order and with the same
decision sequence, and issues each entry as soon as it admits it.  What it
saves is everything around the walk: the budgets, the renamer headroom and
the STQ occupancy are local counters (each provably moves by exactly one
per admitted entry, so it stays equal to the state the reference loop
observes), and the renamer and metric updates are settled once per
core-cycle — one ``allocate_batch``, one ``on_compute_dispatch_batch`` per
latency group (short, then long), one ``on_ldst_dispatch_batch``.  Memory
ops issue in age order inside the walk (the MOB and bandwidth state are
order-sensitive).  A core-cycle dispatches at most the compute plus ld/st
issue widths, so the walk is short by construction.

**Zero-byte accesses.**  Every compute takes ``compute_latency >= 1``
cycles (enforced where configs are built), so the only same-cycle
completion in the machine is a zero-byte memory access: it can wake a
younger dependant mid-scan, which the reference loop observes as it walks
past it.  After one, the walk re-queries the ready index for younger
sequence numbers (older skipped entries are not revisited by the reference
either) and re-reads the STQ occupancy; ``plan_cuts`` counts these.

The backend is the engine's one dispatch path and is bit-identical to
``WindowScan``'s per-uop loop under every sharing mode — the differential
fuzzer diffs the two engines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.coproc.dynamic import EntryKind, EntryState
from repro.coproc.metrics import StallReason

_COMPUTE = EntryKind.COMPUTE
_LOAD = EntryKind.LOAD
_STORE = EntryKind.STORE
_ISSUED = EntryState.ISSUED


class BatchExecutor:
    """One-pass dispatch / bulk commit engine for a fast co-processor.

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
        """One-pass equivalent of the oracle's ``WindowScan.dispatch_core``."""
        pool = coproc.pools[core]
        if not pool._entries:
            if coproc.core_active[core]:
                coproc.metrics.on_stall(core, StallReason.EMPTY, cycle)
            return 0
        self.batched_calls += 1
        scan = pool.ready_dispatchable(cycle)
        if not scan:
            coproc._attribute_zero_dispatch_stall(core, pool, scan, budget, None, cycle)
            return 0
        compute_left = budget["compute"]
        ldst_left = budget["ldst"]
        avail = coproc.renamer.available(core)
        allocations = 0
        rename_failed = False
        lsu = coproc.lsus[core]
        stq_used = lsu.stq_occupancy(cycle)
        stq_cap = lsu.store_queue_entries
        short_latency = coproc.config.vector.compute_latency
        short_vls: List[int] = []
        long_vls: List[int] = []
        short_flops = long_flops = memory = 0
        blocked: Optional[StallReason] = None
        on_issue = pool.on_issue
        window = scan
        index = 0
        while index < len(window):
            entry = window[index]
            index += 1
            if compute_left <= 0 and ldst_left <= 0:
                blocked = blocked or StallReason.ISSUE_BUDGET
                break
            # ``entry.ready(cycle)`` holds for every index candidate, and no
            # admission can un-ready a later one, so the reference loop's
            # DEPENDENCY re-check is vacuous here.
            kind = entry.kind
            if kind is _COMPUTE:
                if compute_left <= 0:
                    blocked = blocked or StallReason.ISSUE_BUDGET
                    continue
                writes = entry.writes_vreg
                if writes:
                    if avail <= 0:
                        rename_failed = True
                        blocked = StallReason.RENAME
                        break
                    avail -= 1
                    allocations += 1
                compute_left -= 1
                entry.holds_phys_reg = writes
                entry.state = _ISSUED
                if entry.long_latency:
                    entry.complete_cycle = cycle + self._long_latency
                    long_vls.append(entry.vl_lanes)
                    long_flops += entry.flops
                else:
                    entry.complete_cycle = cycle + short_latency
                    short_vls.append(entry.vl_lanes)
                    short_flops += entry.flops
                on_issue(entry, cycle)
            elif kind is _LOAD or kind is _STORE:
                if ldst_left <= 0:
                    blocked = blocked or StallReason.ISSUE_BUDGET
                    continue
                is_store = kind is _STORE
                if is_store:
                    if stq_used >= stq_cap:
                        blocked = blocked or StallReason.STORE_QUEUE
                        continue
                    stq_used += 1
                else:
                    if avail <= 0:
                        rename_failed = True
                        blocked = StallReason.RENAME
                        break
                    avail -= 1
                    allocations += 1
                ldst_left -= 1
                memory += 1
                entry.holds_phys_reg = not is_store
                nbytes = entry.nbytes
                entry.complete_cycle = lsu.issue(
                    entry.addr, nbytes, cycle, is_store
                ).complete_cycle
                entry.state = _ISSUED
                on_issue(entry, cycle)
                if nbytes <= 0:
                    # Zero-byte access: may have completed within this very
                    # cycle and woken a younger dependant.  Walk on from the
                    # refreshed index, as the reference does past it.
                    self.plan_cuts += 1
                    seq = entry.seq
                    window = [e for e in pool.ready_dispatchable(cycle) if e.seq > seq]
                    index = 0
                    stq_used = lsu.stq_occupancy(cycle)
            else:  # EM-SIMD entries never appear (the scan stops at them)
                raise SimulationError("EM-SIMD instruction in dispatch scan")
        renamer = coproc.renamer
        if allocations:
            renamer.allocate_batch(core, allocations)
        if rename_failed:
            renamer.note_failed_allocation()
        computes = len(short_vls) + len(long_vls)
        dispatched = computes + memory
        if dispatched == 0:
            # Nothing issued, so nothing was cut: ``scan`` is the whole
            # window's ready list and the budgets are untouched.
            coproc._attribute_zero_dispatch_stall(
                core, pool, scan, budget, blocked, cycle
            )
            return 0
        metrics = coproc.metrics
        if short_vls:
            metrics.on_compute_dispatch_batch(core, short_vls, short_flops, cycle)
        if long_vls:
            metrics.on_compute_dispatch_batch(core, long_vls, long_flops, cycle)
        if memory:
            metrics.on_ldst_dispatch_batch(core, memory)
        budget["compute"] -= computes
        budget["ldst"] -= memory
        self.batched_uops += dispatched
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
