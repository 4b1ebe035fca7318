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
order-sensitive), through this module's :func:`_issue_memory` — the
oracle issues through its own ``issue``.  An empty ready list books its
stall without a walk.  A core-cycle dispatches at most the compute plus
ld/st issue widths, so the walk is short by construction.

**Zero-byte accesses.**  Every compute takes ``compute_latency >= 1``
cycles (enforced where configs are built), so the only same-cycle
completion in the machine is a zero-byte memory access: it can wake a
younger dependant mid-scan, which the reference loop observes as it walks
past it.  After one, the walk re-queries the ready index for younger
sequence numbers (older skipped entries are not revisited by the reference
either) and re-reads the STQ occupancy at its next store; ``plan_cuts``
counts these.

The backend is the engine's one dispatch path and is bit-identical to
``WindowScan``'s per-uop loop under every sharing mode — the differential
fuzzer diffs the two engines.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.coproc.dynamic import EntryKind, EntryState
from repro.coproc.metrics import StallReason

_COMPUTE = EntryKind.COMPUTE
_LOAD = EntryKind.LOAD
_STORE = EntryKind.STORE
_EMSIMD = EntryKind.EMSIMD
_ISSUED = EntryState.ISSUED
_HOLDS_PHYS_REG = attrgetter("holds_phys_reg")
_EMPTY = StallReason.EMPTY
_DEPENDENCY = StallReason.DEPENDENCY
_RENAME = StallReason.RENAME
_ISSUE_BUDGET = StallReason.ISSUE_BUDGET
_STORE_QUEUE = StallReason.STORE_QUEUE
_RECONFIG = StallReason.RECONFIG


def _issue_memory(lsu, addr: int, nbytes: int, cycle: int, is_store: bool) -> float:
    """Issue one ld/st uop through ``lsu`` at ``cycle``; returns its
    completion cycle.

    The access starts once the MOB clears older overlapping accesses; a
    store's completion joins the STQ in FIFO order (it retires no earlier
    than the store ahead of it).  The oracle's per-uop counterpart is
    ``issue`` in :mod:`repro.validation.reference_engine`.
    """
    mob = lsu.mob
    start = mob.earliest_start(addr, nbytes, cycle, is_store)
    result = lsu.memory.access(addr, nbytes, start, is_store)
    complete = result.complete_cycle
    mob.track(addr, nbytes, complete, is_store)
    stats = lsu.stats
    if is_store:
        stats.stores += 1
        stats.bytes_stored += nbytes
        queue = lsu._store_queue
        queue.append(queue[-1] if queue and complete < queue[-1] else complete)
    else:
        stats.loads += 1
        stats.bytes_loaded += nbytes
    stats.vec_cache_hits += result.vec_cache_hits
    stats.l2_hits += result.l2_hits
    stats.dram_accesses += result.dram_accesses
    if lsu.auditor is not None:
        lsu.auditor.on_lsu_issue(lsu, cycle, result)
    return complete


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
                coproc.metrics.on_stall(core, _EMPTY, cycle)
            return 0
        self.batched_calls += 1
        scan = pool.ready_dispatchable(cycle)
        if not scan:
            # Nothing ready: the reason is the head's EM-SIMD barrier, else
            # what blocks the oldest waiting entry (budget, then operands).
            if pool._entries[0].kind is _EMSIMD:
                coproc.metrics.on_stall(core, _RECONFIG, cycle)
            elif pool.oldest_waiting_seq() is not None:
                coproc.metrics.on_stall(
                    core,
                    _ISSUE_BUDGET
                    if budget["compute"] <= 0 and budget["ldst"] <= 0
                    else _DEPENDENCY,
                    cycle,
                )
            return 0
        compute_left = budget["compute"]
        ldst_left = budget["ldst"]
        avail = coproc.renamer.available(core)
        allocations = 0
        lsu = coproc.lsus[core]
        stq_used = -1  # read at the walk's first store: only stores use it
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
                blocked = blocked or _ISSUE_BUDGET
                break
            # ``entry.ready(cycle)`` holds for every index candidate, and no
            # admission can un-ready a later one, so the reference loop's
            # DEPENDENCY re-check is vacuous here.
            kind = entry.kind
            if kind is _COMPUTE:
                if compute_left <= 0:
                    blocked = blocked or _ISSUE_BUDGET
                    continue
                writes = entry.writes_vreg
                if writes:
                    if avail <= 0:
                        blocked = _RENAME
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
                if entry.waiters:
                    on_issue(entry, cycle)
            elif kind is _LOAD or kind is _STORE:
                if ldst_left <= 0:
                    blocked = blocked or _ISSUE_BUDGET
                    continue
                is_store = kind is _STORE
                if is_store:
                    if stq_used < 0:
                        stq_used = lsu.stq_occupancy(cycle)
                    if stq_used >= stq_cap:
                        blocked = blocked or _STORE_QUEUE
                        continue
                    stq_used += 1
                else:
                    if avail <= 0:
                        blocked = _RENAME
                        break
                    avail -= 1
                    allocations += 1
                ldst_left -= 1
                memory += 1
                entry.holds_phys_reg = not is_store
                nbytes = entry.nbytes
                entry.complete_cycle = _issue_memory(
                    lsu, entry.addr, nbytes, cycle, is_store
                )
                entry.state = _ISSUED
                if entry.waiters:
                    on_issue(entry, cycle)
                if nbytes <= 0:
                    # Zero-byte access: may have completed within this very
                    # cycle and woken a younger dependant.  Walk on from the
                    # refreshed index, as the reference does past it.
                    self.plan_cuts += 1
                    seq = entry.seq
                    window = [e for e in pool.ready_dispatchable(cycle) if e.seq > seq]
                    index = 0
                    stq_used = -1
            else:  # EM-SIMD entries never appear (the scan stops at them)
                raise SimulationError("EM-SIMD instruction in dispatch scan")
        if allocations:
            coproc.renamer.allocate_batch(core, allocations)
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
            holders = sum(map(_HOLDS_PHYS_REG, committed))
            if holders:
                coproc.renamer.release_batch(core, holders)
        return len(committed)
