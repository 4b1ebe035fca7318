"""The oracle: the seed engine the fast engine is diffed against.

The classes under :mod:`repro.core` and :mod:`repro.coproc` *are* the fast
engine.  This module is the other side of ``python -m repro diff-fuzz``
(:mod:`repro.validation.difftest`): the simplest machine that implements
the paper's §4 rules — every cycle stepped, every instruction re-decoded,
every window walked — kept because tests diff against it, and kept *here*
so it reads in one sitting next to the paper.  The dependency points one
way: nothing under ``core``, ``coproc``, ``analysis`` or ``service``
imports this module, and no flag, environment variable or constructor
parameter selects it — a caller names :class:`ReferenceMachine` (or
:func:`run_reference`).

Runs **only here**, top to bottom:

* :class:`ReferenceMemorySystem` — Fig. 4's Vec Cache -> L2 -> DRAM walk,
  one ``Cache.access`` / ``Cache.fill`` and one ``BandwidthRegulator.serve``
  call per line and level.
* :class:`ScanPool` — Fig. 5's Instruction Pool + ROB as a plain list;
  every question is answered by walking it, commit included.
* the per-uop hardware updates — :func:`try_allocate` / :func:`release`
  (the renamer's headroom, worked out from its freelist, hold count and
  hold cap), :func:`issue` (one ld/st uop through the MOB, the memory
  walk and the store queue), :func:`store_queue_full`,
  :func:`on_compute_dispatch` / :func:`on_ldst_dispatch` (one metrics
  booking per uop).
* :class:`WindowScan` — §4.2's per-uop age-order dispatch over the whole
  window and per-entry commit, behind the two-method ``commit_core`` /
  ``dispatch_core`` protocol of
  :class:`~repro.coproc.batch_exec.BatchExecutor`.
* :class:`SeedCore` — §4.1's transmit rules as an ``isinstance``
  interpreter, with its own vector operand reads (``_elems``,
  ``_active``, ``_vec_operand``, ``_deps_for``: the decoded handlers read
  registers and build dependence edges inline); it plugs into
  :meth:`ScalarCore._decode`, so the retire loop is shared.
* :class:`ReferenceMachine` — the cycle-by-cycle run loop: nothing sleeps,
  nothing is skipped, no profile is produced.  Each cycle goes through the
  phase-order shells ``Machine.step`` and the bare ``CoProcessor.step``
  (commit, EM-SIMD, dispatch); they live with the engine, but its own
  cycles are ``Machine._step_fast`` and, for one awake core,
  ``Machine._run_lone``, so ``diff-fuzz`` checks their order.

**Shared** with the fast engine — a bug in any of these is invisible to
``diff-fuzz``; closed-form limits and metamorphic laws (ROADMAP 3(b),
3(c)) exist to cover them:

* the machine shell: ``Machine.__init__``, ``next_event_cycle``,
  ``_result``;
* the scalar shell: ``ScalarCore.step`` / ``_account_overhead`` (retire
  slots, transmit width, Fig. 15 attribution), ``next_event_cycle``, the
  scalar read ``_read_reg`` and the tables ``_SCALAR_IMPLS`` /
  ``_BRANCH_IMPLS`` / ``_VOP_IMPLS``;
* the co-processor shell: the per-core EM-SIMD body (``_execute_emsimd``,
  ``_apply_oi``, ``_apply_vl``, §4.2.2), ``_dispatch`` (budgets,
  rotation, sharing modes), ``_cts_arbitrate``;
* the modelled hardware's state and the rest of its methods: ``Metrics``
  (stalls, phases, timelines), the ``Renamer``'s freelists,
  ``LoadStoreUnit.stq_occupancy`` and its MOB, the memory
  hierarchy's state (``Cache`` sets and stats, ``BandwidthRegulator``
  queues and counters, ``AccessResult``), ``ResourceTable``, the lane
  managers, ``DynamicInstruction``;
* the compiler, workloads and images, and the ``--audit`` checker.

**Not touched**: the event wheel and sleep/settle path (``_run_fast``,
``_step_fast`` and its phase order, the lone-core body ``_run_lone`` and
its in-place fold, the pool-bound step skip, ``_component_wake``,
``_settle*``, ``Metrics.replay_core_idle_cycles``, ``skip_idle_cycles``),
the ``_make_*`` decoded handlers with their inline operand reads, the ``VOp`` full-width
store and their inline transmit, ``BatchExecutor`` and its
ld/st issue ``_issue_memory``, ``InstructionPool`` (its ready index, kept
on the uops, and prefix-scan ``commit_ready``),
``_attribute_zero_dispatch_stall``, ``Renamer.available`` and the
``*_batch`` kernels, ``VectorMemorySystem.access``'s inlined line loop,
``RunProfile``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# The deadlock window is read through the module at run time, so one
# monkeypatch of ``repro.core.machine.DEADLOCK_WINDOW`` moves both engines.
import repro.core.machine as machine_mod
from repro.common.config import MachineConfig
from repro.common.errors import DeadlockError, ProtocolError, SimulationError
from repro.coproc.coprocessor import COMMIT_WIDTH, LONG_LATENCY, CoProcessor
from repro.coproc.dynamic import DynamicInstruction, EntryKind, EntryState
from repro.coproc.lsu import LoadStoreUnit
from repro.coproc.metrics import Metrics, StallReason
from repro.coproc.renamer import Renamer
from repro.core.machine import Job, Machine, RunResult
from repro.core.policies import Policy
from repro.core.scalar_core import (
    _BRANCH_IMPLS,
    _SCALAR_IMPLS,
    _STALL,
    _VOP_IMPLS,
    ELEMS_PER_LANE,
    DecodedInstr,
    ScalarCore,
)
from repro.isa.instructions import (
    MRS,
    MSR,
    AddVL,
    Branch,
    Halt,
    Instruction,
    Label,
    ScalarOp,
    VHReduce,
    VLoad,
    VOp,
    VStore,
    WhileLT,
)
from repro.isa.operands import Imm, PReg, ScalarRef, VReg
from repro.isa.registers import SystemRegister
from repro.memory.hierarchy import AccessResult, VectorMemorySystem

# --- the memory hierarchy (Fig. 4) -------------------------------------------


class ReferenceMemorySystem(VectorMemorySystem):
    """The Vec Cache -> L2 -> DRAM walk one method call at a time: each
    line is looked up and filled through :meth:`Cache.access` /
    :meth:`Cache.fill`, and each channel crossing is one
    :meth:`BandwidthRegulator.serve`."""

    def access(self, addr: int, nbytes: int, cycle: float, is_store: bool) -> AccessResult:
        """Serve ``[addr, addr + nbytes)`` starting no earlier than ``cycle``."""
        line_bytes = self.config.line_bytes
        vec_cache = self.vec_cache
        l2 = self.l2
        lines = vec_cache.lines_spanning(addr, nbytes)
        if not lines:
            return AccessResult(cycle, 0, 0, 0, 0)
        vc_hits = 0
        l2_hits = 0
        dram = 0
        complete = float(cycle)
        for line in lines:
            # Every line moves through the Vec Cache port.
            ready = self.vec_cache_bw.serve(line_bytes, cycle)
            latency = self.config.vec_cache.latency
            if vec_cache.access(line, is_store):
                vc_hits += 1
            else:
                # Miss: fetch from L2 (and DRAM below it), then fill.
                ready = self.l2_bw.serve(line_bytes, ready)
                latency += self.config.l2.latency
                if l2.access(line, is_store=False):
                    l2_hits += 1
                else:
                    ready = self.dram_bw.serve(line_bytes, ready)
                    latency += self.config.dram_latency
                    dram += 1
                    l2_victim = l2.fill(line, is_store=False)
                    if l2_victim is not None:
                        self.dram_bw.serve(line_bytes, ready)
                vc_victim = vec_cache.fill(line, is_store)
                if vc_victim is not None:
                    # Dirty eviction consumes L2 bandwidth (write-back).
                    self.l2_bw.serve(line_bytes, ready)
                    l2.fill(vc_victim, is_store=True)
            complete = max(complete, ready + latency)
        return AccessResult(complete, len(lines), vc_hits, l2_hits, dram)


# --- the instruction pool (Fig. 5) -------------------------------------------


class ScanPool:
    """The per-core window as one plain list in program order: every
    question is answered by walking it."""

    def __init__(self, core_id: int, capacity: int) -> None:
        self.core_id = core_id
        self.capacity = capacity
        self._entries: List[DynamicInstruction] = []
        self.transmitted = 0
        self.committed = 0

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

    def head(self) -> Optional[DynamicInstruction]:
        """The oldest in-flight instruction."""
        return self._entries[0] if self._entries else None

    def dispatchable(self) -> List[DynamicInstruction]:
        """Entries eligible for dispatch this cycle, oldest first.

        EM-SIMD instructions serialise the window (§4.2.2 executes them in
        order on a drained pipeline), so scanning stops at the first one.
        """
        eligible: List[DynamicInstruction] = []
        for entry in self._entries:
            if entry.kind is EntryKind.EMSIMD:
                break
            if entry.state is EntryState.WAITING:
                eligible.append(entry)
        return eligible

    def commit_ready(self, cycle: float, width: int) -> List[DynamicInstruction]:
        """Retire completed entries from the head, in order, one at a
        time, at most ``width`` of them."""
        committed: List[DynamicInstruction] = []
        while self._entries and len(committed) < width:
            if not self._entries[0].completed(cycle):
                break
            committed.append(self._entries.pop(0))
        self.committed += len(committed)
        return committed

    def next_completion(self, cycle: float) -> Optional[float]:
        """Earliest future completion among already-issued entries."""
        nxt: Optional[float] = None
        for entry in self._entries:
            if entry.state is EntryState.WAITING:
                continue
            if entry.complete_cycle > cycle and (
                nxt is None or entry.complete_cycle < nxt
            ):
                nxt = entry.complete_cycle
        return nxt

    def on_issue(self, entry: DynamicInstruction, cycle: int) -> None:
        """Nothing to maintain: the next scan reads the entry's new state."""

    def pending_emsimd(self) -> int:
        """Number of EM-SIMD instructions still in flight (for MRS sync)."""
        return sum(1 for entry in self._entries if entry.kind is EntryKind.EMSIMD)


# --- per-uop hardware updates (§4.2) -----------------------------------------


def try_allocate(renamer: Renamer, core: int) -> bool:
    """Claim one physical register for a new in-flight write of ``core``.

    Returns False (a renaming stall) when the freelist serving ``core`` is
    empty or ``core`` already holds its fairness cap (temporal sharing).
    """
    slot = renamer._slot(core)
    if renamer._free[slot] <= 0 or renamer._held[core] >= renamer._hold_cap:
        return False
    renamer._free[slot] -= 1
    renamer._held[core] += 1
    if renamer.auditor is not None:
        renamer.auditor.on_renamer(renamer)
    return True


def release(renamer: Renamer, core: int) -> None:
    """Return one physical register at commit of its in-flight write."""
    slot = renamer._slot(core)
    if renamer._held[core] <= 0 or renamer._free[slot] >= renamer._capacity[slot]:
        raise ProtocolError("renamer freelist overflow (double release)")
    renamer._free[slot] += 1
    renamer._held[core] -= 1
    if renamer.auditor is not None:
        renamer.auditor.on_renamer(renamer)


def issue(
    lsu: LoadStoreUnit, addr: int, nbytes: int, cycle: float, is_store: bool
) -> AccessResult:
    """Issue one ld/st uop through ``lsu`` at ``cycle``; returns its completion."""
    if nbytes < 0:
        raise SimulationError("negative access size")
    start = lsu.mob.earliest_start(addr, nbytes, cycle, is_store)
    result = lsu.memory.access(addr, nbytes, start, is_store)
    lsu.mob.track(addr, nbytes, result.complete_cycle, is_store)
    if is_store:
        lsu.stats.stores += 1
        lsu.stats.bytes_stored += nbytes
        completion = result.complete_cycle
        if lsu._store_queue and completion < lsu._store_queue[-1]:
            completion = lsu._store_queue[-1]  # FIFO retirement
        lsu._store_queue.append(completion)
    else:
        lsu.stats.loads += 1
        lsu.stats.bytes_loaded += nbytes
    lsu.stats.vec_cache_hits += result.vec_cache_hits
    lsu.stats.l2_hits += result.l2_hits
    lsu.stats.dram_accesses += result.dram_accesses
    if lsu.auditor is not None:
        lsu.auditor.on_lsu_issue(lsu, cycle, result)
    return result


def store_queue_full(lsu: LoadStoreUnit, cycle: float) -> bool:
    """True when a new store would have no STQ entry this cycle."""
    return lsu.stq_occupancy(cycle) >= lsu.store_queue_entries


def on_compute_dispatch(
    metrics: Metrics, core: int, vl_lanes: int, flops: int, cycle: int
) -> None:
    """Book one compute uop of ``vl_lanes`` lanes dispatched at ``cycle``."""
    metrics.compute_uops[core] += 1
    metrics.flops[core] += flops
    metrics.busy_pipe_slots += vl_lanes
    metrics.busy_lanes_series[core].add(cycle, vl_lanes / metrics.pipes_per_lane)
    phase = metrics._open_phase[core]
    if phase is not None:
        phase.compute_uops += 1


def on_ldst_dispatch(metrics: Metrics, core: int) -> None:
    """Book one ld/st uop dispatched by ``core``."""
    metrics.ldst_uops[core] += 1
    phase = metrics._open_phase[core]
    if phase is not None:
        phase.ldst_uops += 1


# --- the co-processor (§4.2) -------------------------------------------------


class WindowScan:
    """Per-entry commit and per-uop age-order dispatch over the whole window.

    Stands where :class:`~repro.coproc.batch_exec.BatchExecutor` stands in
    the fast engine: ``CoProcessor.step`` calls :meth:`commit_core` and
    ``CoProcessor._dispatch`` calls :meth:`dispatch_core`, once per awake
    core per cycle.
    """

    def commit_core(self, coproc: CoProcessor, core: int, cycle: int) -> int:
        """In-order commit, one physical-register release per entry."""
        committed = 0
        for entry in coproc.pools[core].commit_ready(cycle, COMMIT_WIDTH):
            if entry.holds_phys_reg:
                release(coproc.renamer, core)
            committed += 1
        return committed

    def dispatch_core(
        self, coproc: CoProcessor, core: int, budget: Dict[str, int], cycle: int
    ) -> int:
        """Walk the window oldest first; issue every uop that is ready and
        fits the budgets, the renamer freelist and the store queue.  When
        nothing issues, record the first reason met in age order."""
        pool = coproc.pools[core]
        metrics = coproc.metrics
        if pool.empty:
            if coproc.core_active[core]:
                metrics.on_stall(core, StallReason.EMPTY, cycle)
            return 0
        dispatched = 0
        blocked: Optional[StallReason] = None
        for entry in pool.dispatchable():
            if budget["compute"] <= 0 and budget["ldst"] <= 0:
                blocked = blocked or StallReason.ISSUE_BUDGET
                break
            if not entry.ready(cycle):
                blocked = blocked or StallReason.DEPENDENCY
                continue
            if entry.kind is EntryKind.COMPUTE:
                if budget["compute"] <= 0:
                    blocked = blocked or StallReason.ISSUE_BUDGET
                    continue
                if entry.writes_vreg and not try_allocate(coproc.renamer, core):
                    # Renaming happens in program order: a rename stall
                    # blocks every younger instruction too.
                    blocked = StallReason.RENAME
                    break
                entry.holds_phys_reg = entry.writes_vreg
                latency = (
                    LONG_LATENCY
                    if entry.long_latency
                    else coproc.config.vector.compute_latency
                )
                entry.state = EntryState.ISSUED
                entry.complete_cycle = cycle + latency
                budget["compute"] -= 1
                on_compute_dispatch(metrics, core, entry.vl_lanes, entry.flops, cycle)
                dispatched += 1
            elif entry.kind in (EntryKind.LOAD, EntryKind.STORE):
                if budget["ldst"] <= 0:
                    blocked = blocked or StallReason.ISSUE_BUDGET
                    continue
                is_store = entry.kind is EntryKind.STORE
                lsu = coproc.lsus[core]
                if is_store and store_queue_full(lsu, cycle):
                    blocked = blocked or StallReason.STORE_QUEUE
                    continue
                if not is_store and not try_allocate(coproc.renamer, core):
                    blocked = StallReason.RENAME
                    break
                entry.holds_phys_reg = not is_store
                result = issue(lsu, entry.addr, entry.nbytes, cycle, is_store)
                entry.state = EntryState.ISSUED
                entry.complete_cycle = result.complete_cycle
                budget["ldst"] -= 1
                on_ldst_dispatch(metrics, core)
                dispatched += 1
            else:  # EM-SIMD entries never appear (dispatchable() stops there)
                raise SimulationError("EM-SIMD instruction in dispatch scan")
        if dispatched == 0:
            head = pool.head()
            if head is not None and head.kind is EntryKind.EMSIMD:
                metrics.on_stall(core, StallReason.RECONFIG, cycle)
            elif blocked is not None:
                metrics.on_stall(core, blocked, cycle)
            elif any(e.state is EntryState.WAITING for e in pool.dispatchable()):
                metrics.on_stall(core, StallReason.DEPENDENCY, cycle)
        return dispatched


class ReferenceCoProcessor(CoProcessor):
    """The shared co-processor shell over scan pools, the window scan and
    the per-call memory walk."""

    memory_class = ReferenceMemorySystem

    def __init__(self, config, mode, metrics, lane_manager) -> None:
        super().__init__(config, mode, metrics, lane_manager)
        self.pools = [
            ScanPool(core, config.core.instruction_pool_entries)
            for core in range(config.num_cores)
        ]
        self._batch = WindowScan()


# --- the scalar core (§4.1) --------------------------------------------------


def _apply_vop(op: str, operands: List[object]) -> np.ndarray:
    """Element-wise semantics of a vector compute operation."""
    try:
        impl = _VOP_IMPLS[op]
    except KeyError:  # pragma: no cover - guarded by VOp validation
        raise SimulationError(f"unknown vector op {op}")
    return impl(operands)


class SeedCore(ScalarCore):
    """A scalar core that interprets: every instruction "decodes" to a call
    of :meth:`_execute`, which re-dispatches on the instruction's type and
    re-reads its operands from the instruction object each time."""

    def _decode(self, index: int, instr: Instruction) -> Optional[DecodedInstr]:
        if isinstance(instr, Label):
            return None
        return DecodedInstr(
            index, instr, lambda cycle: self._execute(instr, cycle)
        )

    def _read_scalar(self, src: object, cycle: int) -> object:
        """Read a scalar operand; returns ``_STALL`` if a vector write to it
        is still in flight."""
        if isinstance(src, Imm):
            return src.value
        if isinstance(src, (int, float)):
            return src
        name = src.name if isinstance(src, ScalarRef) else src
        return self._read_reg(name, cycle)

    def _elems(self) -> int:
        """Current vector length in 32-bit elements."""
        return self.coproc.configured_vl(self.core_id) * ELEMS_PER_LANE

    def _active(self, pred: Optional[PReg]) -> int:
        """Active elements under ``pred`` (all of the vector length without one)."""
        if pred is None:
            return self._elems()
        return self.pregs.get(pred.name, 0)

    def _vec_operand(self, operand: object, active: int, cycle: int) -> object:
        """Materialise a vector operand as an array of >= ``active`` elems
        (or ``_STALL`` when a broadcast scalar is still pending)."""
        if isinstance(operand, VReg):
            value = self.vregs.get(operand.name)
            if value is None:
                value = np.zeros(active, dtype=np.float32)
            elif len(value) < active:
                value = np.concatenate(
                    [value, np.zeros(active - len(value), dtype=np.float32)]
                )
            return value[:active]
        if isinstance(operand, (ScalarRef, str)):
            name = operand.name if isinstance(operand, ScalarRef) else operand
            scalar = self._read_reg(name, cycle)
            if scalar is _STALL:
                return _STALL
            return np.float32(scalar)
        if isinstance(operand, Imm):
            return np.float32(operand.value)
        raise SimulationError(f"bad vector operand {operand!r}")

    def _deps_for(self, names: Tuple[str, ...]) -> Tuple[DynamicInstruction, ...]:
        """The last writers of ``names`` still known to this core."""
        return tuple(
            self._last_writer[name] for name in names if name in self._last_writer
        )

    def _transmit(
        self, instr: Instruction, cycle: int, kind: EntryKind, **fields: object
    ) -> DynamicInstruction:
        """Hand an executed vector/EM-SIMD instruction to the co-processor
        as a timing record (§4.1.1); ``fields`` are its kind's extras."""
        fields.setdefault("vl_lanes", self.coproc.configured_vl(self.core_id))
        entry = DynamicInstruction(
            seq=self.coproc.next_seq(),
            core=self.core_id,
            kind=kind,
            instr=instr,
            transmit_cycle=cycle,
            **fields,
        )
        self.coproc.transmit(entry)
        return entry

    def _execute(self, instr: Instruction, cycle: int) -> Tuple[str, Optional[str]]:
        """Execute one instruction. Returns (outcome, stall_kind) where
        outcome is "ok", "branch" or "stall"."""
        if isinstance(instr, ScalarOp):
            return self._exec_scalar_op(instr, cycle)
        if isinstance(instr, Branch):
            return self._exec_branch(instr, cycle)
        if isinstance(instr, AddVL):
            value = self._read_scalar(instr.src, cycle)
            if value is _STALL:
                return "stall", None
            lanes = self.coproc.configured_vl(self.core_id)
            self.regs[instr.dst] = value + lanes * 16 // instr.elem_bytes
            return "ok", None
        if isinstance(instr, Halt):
            self.halted = True
            return "ok", None
        if isinstance(instr, MSR):
            return self._exec_msr(instr, cycle)
        if isinstance(instr, MRS):
            return self._exec_mrs(instr, cycle)
        if isinstance(instr, WhileLT):
            return self._exec_whilelt(instr, cycle)
        if isinstance(instr, VOp):
            return self._exec_vop(instr, cycle)
        if isinstance(instr, VLoad):
            return self._exec_vload(instr, cycle)
        if isinstance(instr, VStore):
            return self._exec_vstore(instr, cycle)
        if isinstance(instr, VHReduce):
            return self._exec_vhreduce(instr, cycle)
        raise SimulationError(f"cannot execute {instr!r}")

    def _exec_scalar_op(self, instr: ScalarOp, cycle: int) -> Tuple[str, Optional[str]]:
        values = []
        for src in instr.srcs:
            value = self._read_scalar(src, cycle)
            if value is _STALL:
                return "stall", None
            values.append(value)
        try:
            impl = _SCALAR_IMPLS[instr.op]
        except KeyError:  # pragma: no cover - guarded by ScalarOp validation
            raise SimulationError(f"unknown scalar op {instr.op}")
        self.regs[instr.dst] = impl(values)
        return "ok", None

    def _exec_branch(self, instr: Branch, cycle: int) -> Tuple[str, Optional[str]]:
        if instr.cond == "al":
            taken = True
        else:
            lhs = self._read_scalar(instr.src1, cycle)
            rhs = self._read_scalar(instr.src2, cycle)
            if lhs is _STALL or rhs is _STALL:
                return "stall", None
            taken = _BRANCH_IMPLS[instr.cond](lhs, rhs)
        if taken:
            self._branch_target = self.program.target(instr.target)
            return "branch", None
        return "ok", None

    def _exec_msr(self, instr: MSR, cycle: int) -> Tuple[str, Optional[str]]:
        if not self.coproc.can_transmit(self.core_id):
            return "stall", None
        value = self._read_scalar(instr.src, cycle)
        if value is _STALL:
            return "stall", None
        self._transmit(instr, cycle, EntryKind.EMSIMD, sysreg=instr.sysreg, value=value)
        return "ok", None

    def _exec_mrs(self, instr: MRS, cycle: int) -> Tuple[str, Optional[str]]:
        if instr.sysreg is not SystemRegister.DECISION:
            # Synchronising read: wait for older EM-SIMD writes to execute.
            if self.coproc.pending_emsimd(self.core_id) > 0:
                return "stall", "reconfig"
        self.regs[instr.dst] = self.coproc.read_sysreg(self.core_id, instr.sysreg)
        return "ok", None

    def _exec_whilelt(self, instr: WhileLT, cycle: int) -> Tuple[str, Optional[str]]:
        if not self.coproc.can_transmit(self.core_id):
            return "stall", None
        counter = self._read_scalar(instr.counter, cycle)
        limit = self._read_scalar(instr.limit, cycle)
        if counter is _STALL or limit is _STALL:
            return "stall", None
        active = max(0, min(self._elems(), int(limit) - int(counter)))
        self.pregs[instr.pdst.name] = active
        # Predicate generation occupies no FP lanes.
        self._last_writer[instr.pdst.name] = self._transmit(
            instr, cycle, EntryKind.COMPUTE, vl_lanes=0, writes_vreg=False
        )
        return "ok", None

    def _exec_vop(self, instr: VOp, cycle: int) -> Tuple[str, Optional[str]]:
        if not self.coproc.can_transmit(self.core_id):
            return "stall", None
        active = self._active(instr.pred)
        operands = []
        for src in instr.srcs:
            value = self._vec_operand(src, active, cycle)
            if value is _STALL:
                return "stall", None
            operands.append(value)
        elems = self._elems()
        width = max(elems, active)
        # Merging predication: inactive lanes keep the old destination value
        # (SVE /M), which reduction accumulators rely on in tail iterations.
        old = self.vregs.get(instr.dst.name)
        result = np.zeros(width, dtype=np.float32)
        if old is not None:
            span = min(len(old), width)
            result[:span] = old[:span]
        if active > 0:
            result[:active] = _apply_vop(instr.op, operands)
        self.vregs[instr.dst.name] = result
        dep_names = tuple(
            src.name for src in instr.srcs if isinstance(src, VReg)
        ) + ((instr.pred.name,) if instr.pred else ())
        self._last_writer[instr.dst.name] = self._transmit(
            instr,
            cycle,
            EntryKind.COMPUTE,
            deps=self._deps_for(dep_names),
            flops=instr.flops_per_element * active,
            long_latency=instr.is_long_latency,
            writes_vreg=True,
        )
        return "ok", None

    def _exec_vload(self, instr: VLoad, cycle: int) -> Tuple[str, Optional[str]]:
        if not self.coproc.can_transmit(self.core_id):
            return "stall", None
        index = self._read_scalar(instr.index, cycle)
        if index is _STALL:
            return "stall", None
        index = int(index)
        active = self._active(instr.pred)
        stride = instr.stride
        array = self.image.array(instr.array)
        span = (active - 1) * stride + 1 if active > 0 else 0
        if active > 0 and index + span > len(array):
            raise SimulationError(
                f"core {self.core_id}: load of {instr.array}"
                f"[{index}:{index + span}:{stride}] overruns "
                f"length {len(array)}"
            )
        elems = self._elems()
        value = np.zeros(max(elems, active), dtype=np.float32)
        if active > 0:
            value[:active] = array[index : index + span : stride]
        self.vregs[instr.dst.name] = value
        dep_names = (instr.pred.name,) if instr.pred else ()
        self._last_writer[instr.dst.name] = self._transmit(
            instr,
            cycle,
            EntryKind.LOAD,
            deps=self._deps_for(dep_names),
            addr=self.image.address_of(instr.array, index, instr.elem_bytes),
            # A strided access touches every line in its span.
            nbytes=span * instr.elem_bytes,
            writes_vreg=True,
        )
        return "ok", None

    def _exec_vstore(self, instr: VStore, cycle: int) -> Tuple[str, Optional[str]]:
        if not self.coproc.can_transmit(self.core_id):
            return "stall", None
        index = self._read_scalar(instr.index, cycle)
        if index is _STALL:
            return "stall", None
        index = int(index)
        active = self._active(instr.pred)
        array = self.image.array(instr.array)
        if active > 0 and index + active > len(array):
            raise SimulationError(
                f"core {self.core_id}: store to {instr.array}"
                f"[{index}:{index + active}] overruns length {len(array)}"
            )
        value = self._vec_operand(instr.src, active, cycle)
        if value is _STALL:
            return "stall", None
        if active > 0:
            array[index : index + active] = value[:active]
        dep_names = (instr.src.name,) + ((instr.pred.name,) if instr.pred else ())
        self._transmit(
            instr,
            cycle,
            EntryKind.STORE,
            deps=self._deps_for(dep_names),
            addr=self.image.address_of(instr.array, index, instr.elem_bytes),
            nbytes=active * instr.elem_bytes,
            writes_vreg=False,
        )
        return "ok", None

    def _exec_vhreduce(self, instr: VHReduce, cycle: int) -> Tuple[str, Optional[str]]:
        if not self.coproc.can_transmit(self.core_id):
            return "stall", None
        active = self._active(instr.pred)
        source = self._vec_operand(instr.src, active, cycle)
        if active > 0:
            if instr.op == "add":
                value = float(np.add.reduce(source[:active], dtype=np.float64))
            elif instr.op == "max":
                value = float(np.max(source[:active]))
            else:
                value = float(np.min(source[:active]))
        else:
            value = 0.0
        self.regs[instr.dst] = value
        dep_names = (instr.src.name,) + ((instr.pred.name,) if instr.pred else ())
        self._pending_scalar[instr.dst] = self._transmit(
            instr,
            cycle,
            EntryKind.COMPUTE,
            deps=self._deps_for(dep_names),
            flops=active,
            writes_vreg=False,
            scalar_dst=instr.dst,
        )
        return "ok", None


# --- the machine -------------------------------------------------------------


class ReferenceMachine(Machine):
    """A :class:`Machine` of seed parts, run one cycle at a time.

    Its results carry no ``profile`` (``RunResult.profile`` stays ``None``):
    ``--profile`` attributes the fast engine's cycles only.
    """

    coproc_class = ReferenceCoProcessor
    core_class = SeedCore

    def run(self, max_cycles: int = 3_000_000) -> RunResult:
        """Simulate until every workload halts and drains."""
        cycle = 0
        last_progress = 0
        while not self.finished:
            if cycle >= max_cycles:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(policy={self.policy.key})"
                )
            if self.step(cycle):
                last_progress = cycle
            elif (
                cycle - last_progress > machine_mod.DEADLOCK_WINDOW
                and self.next_event_cycle(cycle) is None
            ):
                raise DeadlockError(
                    f"no forward progress since cycle {last_progress} "
                    f"(policy={self.policy.key})"
                )
            cycle += 1
        return self._result(cycle)


def run_reference(
    config: MachineConfig,
    policy: Policy,
    jobs: Sequence[Optional[Job]],
    max_cycles: int = 3_000_000,
    audit: Optional[bool] = None,
) -> RunResult:
    """The oracle's :func:`~repro.core.machine.run_policy`."""
    return ReferenceMachine(config, policy, jobs, audit=audit).run(
        max_cycles=max_cycles
    )
