"""The scalar (CPU) core model: interpreter + transmit rules (§4.1).

Each scalar core interprets the mini ISA in order, retiring up to
``scalar_ipc`` instructions per cycle.  Vector/EM-SIMD instructions are
*functionally executed at transmit time* — legal because each core
transmits in program order — and then handed to the co-processor as
:class:`DynamicInstruction` timing records (§4.1.1).

Ordering rules implemented here (Table 2, scalar-core-managed cells):

* ⟨Scalar, SVE/EM-SIMD⟩ — scalar operands are read at transmit, so the
  dependency is resolved by in-order interpretation;
* ⟨SVE, Scalar⟩ — a scalar read of a register written by an in-flight
  vector instruction (``VHReduce``) stalls until that instruction
  completes;
* ⟨EM-SIMD, Scalar/SVE⟩ — ``MRS`` of any register except ``<decision>``
  stalls until the core's older EM-SIMD writes have executed; ``MSR
  <decision>`` is transmitted speculatively (§4.1.1) and reads the table
  immediately.

Execution goes through a **pre-decoded dispatch table**: at construction
every :class:`Program` instruction is resolved once (:meth:`ScalarCore._decode`)
into a bound handler closure with pre-parsed operands
(:class:`DecodedInstr`), so the hot loop performs no ``isinstance`` checks,
no label lookups and no operand re-classification.  The seed
``isinstance`` interpreter these handlers are diffed against lives with
the oracle (``SeedCore`` in :mod:`repro.validation.reference_engine`),
which overrides ``_decode`` and shares :meth:`ScalarCore.step`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.config import CoreConfig
from repro.common.errors import SimulationError
from repro.coproc.coprocessor import CoProcessor
from repro.coproc.dynamic import DynamicInstruction, EntryKind, EntryState
from repro.coproc.metrics import Metrics
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
from repro.isa.operands import Imm, ScalarRef, VReg
from repro.isa.program import Program
from repro.isa.registers import SystemRegister
from repro.memory.image import MemoryImage

#: Sentinel returned by operand reads that must stall.
_STALL = object()

#: Elements per 128-bit lane for 32-bit data.
ELEMS_PER_LANE = 4

_COMPUTE = EntryKind.COMPUTE
_LOAD = EntryKind.LOAD
_STORE = EntryKind.STORE
_F32 = np.float32
_zeros = np.zeros

#: The instructions whose handler tests pool fullness before anything else:
#: with the pool full, a step at one retires nothing and books nothing.
_POOL_BOUND = (VOp, VLoad, VStore, WhileLT, VHReduce, MSR)


#: Scalar ALU semantics (the oracle's seed interpreter shares this table,
#: so both compute identical values).
_SCALAR_IMPLS: Dict[str, Callable[[List[object]], object]] = {
    "mov": lambda v: v[0],
    "add": lambda v: v[0] + v[1],
    "sub": lambda v: v[0] - v[1],
    "mul": lambda v: v[0] * v[1],
    "div": lambda v: v[0] / v[1] if v[1] else 0,
    "rem": lambda v: v[0] % v[1] if v[1] else 0,
    "and": lambda v: int(v[0]) & int(v[1]),
    "or": lambda v: int(v[0]) | int(v[1]),
    "min": lambda v: min(v),
    "max": lambda v: max(v),
    "lsl": lambda v: int(v[0]) << int(v[1]),
    "lsr": lambda v: int(v[0]) >> int(v[1]),
}

#: Branch-condition semantics (``al`` handled separately).
_BRANCH_IMPLS: Dict[str, Callable[[object, object], bool]] = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _vop_div(operands: List[object]) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.divide(operands[0], operands[1])
    return np.nan_to_num(result, nan=0.0, posinf=0.0, neginf=0.0)


#: Element-wise vector semantics (shared with the oracle, as above).
_VOP_IMPLS: Dict[str, Callable[[List[object]], np.ndarray]] = {
    "add": lambda o: o[0] + o[1],
    "sub": lambda o: o[0] - o[1],
    "mul": lambda o: o[0] * o[1],
    "div": _vop_div,
    "sqrt": lambda o: np.sqrt(np.abs(o[0])),
    "fma": lambda o: o[0] * o[1] + o[2],
    "min": lambda o: np.minimum(o[0], o[1]),
    "max": lambda o: np.maximum(o[0], o[1]),
    "abs": lambda o: np.abs(o[0]),
    "neg": lambda o: -o[0],
    "dup": lambda o: o[0] + np.float32(0.0),
    "mov": lambda o: o[0] + np.float32(0.0),
    "cmpgt": lambda o: (o[0] > o[1]).astype(np.float32),
    "sel": lambda o: np.where(o[0] > 0, o[1], o[2]).astype(np.float32),
}


def _fit(value: Optional[np.ndarray], active: int) -> np.ndarray:
    """Vector register ``value`` (``None`` before its first write) as
    exactly ``active`` elements: zero-extended or cut.  The handlers call
    this only when the register's length is not already ``active``."""
    if value is None:
        return np.zeros(active, dtype=np.float32)
    if len(value) < active:
        return np.concatenate([value, np.zeros(active - len(value), dtype=np.float32)])
    return value[:active]


class DecodedInstr:
    """One pre-decoded instruction: a bound handler plus static facts.

    ``run(cycle)`` executes the instruction and returns ``(outcome,
    stall_kind)``, outcome being "ok", "branch" or "stall".  Operand
    classification (immediate vs register vs vector),
    label resolution and semantic-function lookup all happened once at
    decode time.
    """

    __slots__ = ("pc", "instr", "run", "is_vector", "is_branch")

    def __init__(
        self,
        pc: int,
        instr: Instruction,
        run: Callable[[int], Tuple[str, Optional[str]]],
        is_branch: bool = False,
    ) -> None:
        self.pc = pc
        self.instr = instr
        self.run = run
        self.is_vector = instr.is_vector
        self.is_branch = is_branch


def _scalar_spec(src: object) -> Tuple[bool, object]:
    """Classify a scalar operand once: (is_immediate, payload)."""
    if isinstance(src, Imm):
        return True, src.value
    if isinstance(src, (int, float)):
        return True, src
    return False, src.name if isinstance(src, ScalarRef) else src


#: Vector-operand spec kinds (decode-time classification).
_V_VREG, _V_SCALAR, _V_IMM = 0, 1, 2


def _vector_spec(operand: object) -> Tuple[int, object]:
    if isinstance(operand, VReg):
        return _V_VREG, operand.name
    if isinstance(operand, (ScalarRef, str)):
        return _V_SCALAR, operand.name if isinstance(operand, ScalarRef) else operand
    if isinstance(operand, Imm):
        return _V_IMM, np.float32(operand.value)
    raise SimulationError(f"bad vector operand {operand!r}")


class ScalarCore:
    """One in-order-retire scalar core driving the shared co-processor."""

    def __init__(
        self,
        core_id: int,
        program: Program,
        image: MemoryImage,
        coproc: CoProcessor,
        metrics: Metrics,
        config: CoreConfig,
    ) -> None:
        self.core_id = core_id
        self.program = program
        self.image = image
        self.coproc = coproc
        self.metrics = metrics
        self.config = config
        self.pc = 0
        self.halted = False
        self.regs: Dict[str, object] = {}
        self.vregs: Dict[str, np.ndarray] = {}
        self.pregs: Dict[str, int] = {}
        self._last_writer: Dict[str, DynamicInstruction] = {}
        self._pending_scalar: Dict[str, DynamicInstruction] = {}
        self.retired = 0
        self.retired_vector = 0
        self._monitor_idx = frozenset(program.meta.get("monitor", ()))
        self._reconfig_idx = frozenset(program.meta.get("reconfig", ()))
        self._instrumented = self._monitor_idx | self._reconfig_idx
        #: Pre-decoded dispatch table, one entry per instruction
        #: (``None`` for labels).
        self.decoded: List[Optional[DecodedInstr]] = [
            self._decode(index, instr)
            for index, instr in enumerate(program.instructions)
        ]
        #: Per pc, whether the instruction is :data:`_POOL_BOUND`: the run
        #: loop skips a step there while the pool is full.  The extra slot
        #: is where a halted core's ``pc`` points.
        self.pool_bound: List[bool] = [
            isinstance(instr, _POOL_BOUND) for instr in program.instructions
        ] + [False]

    # --- operand helpers ---------------------------------------------------

    def _read_reg(self, name: str, cycle: int) -> object:
        """Read scalar register ``name``; ``_STALL`` while a vector write
        to it is still in flight."""
        pending = self._pending_scalar.get(name)
        if pending is not None:
            if not pending.completed(cycle):
                return _STALL
            del self._pending_scalar[name]
        return self.regs.get(name, 0)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle a blocked scalar read can unblock.

        Next-event hook for the idle-cycle fast-forward.  A core stalled on
        a pending ``VHReduce`` scalar write-back resumes exactly when that
        in-flight instruction completes; every other scalar-side stall
        (transmit back-pressure, MRS synchronisation) clears via
        co-processor events the engine reports itself.
        """
        nxt: Optional[float] = None
        for entry in self._pending_scalar.values():
            if entry.state is EntryState.WAITING:
                continue
            if entry.complete_cycle > cycle and (
                nxt is None or entry.complete_cycle < nxt
            ):
                nxt = entry.complete_cycle
        if nxt is None:
            return None
        return int(math.ceil(nxt))

    # --- the per-cycle interpreter ------------------------------------------

    def step(self, cycle: int) -> int:
        """Retire up to ``scalar_ipc`` instructions; returns retired count."""
        if self.halted:
            return 0
        slots = self.config.scalar_ipc
        transmits = self.config.transmit_width
        retired_indices: List[int] = []
        stall_kind: Optional[str] = None
        decoded = self.decoded
        pc = self.pc
        while slots > 0 and not self.halted:
            d = decoded[pc]
            if d is None:  # label: occupies no slot
                pc += 1
                continue
            if d.is_vector and transmits <= 0:
                break
            outcome, kind = d.run(cycle)
            if outcome == "stall":
                stall_kind = kind
                break
            # The retired instruction's own index feeds the Fig. 15
            # overhead attribution — for branches too (the branch *target*
            # is where execution resumes, not what retired this cycle).
            retired_indices.append(pc)
            if outcome == "branch":
                pc = self._branch_target
            else:
                pc += 1
            slots -= 1
            if d.is_vector:
                transmits -= 1
        self.pc = pc
        self.retired += len(retired_indices)
        if self.halted:
            # The handlers close over this core; a halted core never runs
            # one again, and without them it is freed by reference count.
            for d in decoded:
                if d is not None:
                    d.run = None
        if retired_indices or stall_kind is not None:
            self._account_overhead(retired_indices, stall_kind)
        return len(retired_indices)

    def _account_overhead(
        self, retired_indices: List[int], stall_kind: Optional[str]
    ) -> None:
        """Attribute whole cycles spent purely in EM-SIMD instrumentation
        (Fig. 15's monitoring vs reconfiguration split)."""
        if stall_kind == "reconfig":
            self.metrics.on_overhead_cycle(self.core_id, "reconfig")
            return
        if not retired_indices:
            return
        if self._instrumented.issuperset(retired_indices):
            if not self._reconfig_idx.isdisjoint(retired_indices):
                self.metrics.on_overhead_cycle(self.core_id, "reconfig")
            else:
                self.metrics.on_overhead_cycle(self.core_id, "monitor")

    # --- instruction pre-decoding -------------------------------------------

    #: Where a taken branch resumes (set by the branch handler, read by
    #: :meth:`step`).
    _branch_target = 0

    def _decode(self, index: int, instr: Instruction) -> Optional[DecodedInstr]:
        """Resolve ``instr`` once into a bound handler closure."""
        if isinstance(instr, Label):
            return None
        if isinstance(instr, ScalarOp):
            return DecodedInstr(index, instr, self._make_scalar_op(instr))
        if isinstance(instr, Branch):
            return DecodedInstr(
                index, instr, self._make_branch(instr), is_branch=True
            )
        if isinstance(instr, AddVL):
            return DecodedInstr(index, instr, self._make_addvl(instr))
        if isinstance(instr, Halt):
            return DecodedInstr(index, instr, self._make_halt())
        if isinstance(instr, MSR):
            return DecodedInstr(index, instr, self._make_msr(instr))
        if isinstance(instr, MRS):
            return DecodedInstr(index, instr, self._make_mrs(instr))
        if isinstance(instr, WhileLT):
            return DecodedInstr(index, instr, self._make_whilelt(instr))
        if isinstance(instr, VOp):
            return DecodedInstr(index, instr, self._make_vop(instr))
        if isinstance(instr, VLoad):
            return DecodedInstr(index, instr, self._make_vload(instr))
        if isinstance(instr, VStore):
            return DecodedInstr(index, instr, self._make_vstore(instr))
        if isinstance(instr, VHReduce):
            return DecodedInstr(index, instr, self._make_vhreduce(instr))
        raise SimulationError(f"cannot decode {instr!r}")

    def _ports(self):
        """What a transmitting handler binds once: the pool's window and
        capacity (fullness is tested inline), its ``push``, the sequence
        counter, and this core's ``ResourceTable`` row (its ``<VL>``)."""
        coproc = self.coproc
        pool = coproc.pools[self.core_id]
        row = coproc.resource_table._cores[self.core_id]
        return pool._entries, pool.capacity, pool.push, coproc.next_seq, row

    def _make_scalar_op(self, instr: ScalarOp):
        impl = _SCALAR_IMPLS[instr.op]
        specs = tuple(_scalar_spec(src) for src in instr.srcs)
        dst = instr.dst
        read_reg = self._read_reg
        regs = self.regs

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            values = []
            for is_imm, payload in specs:
                if is_imm:
                    values.append(payload)
                else:
                    value = read_reg(payload, cycle)
                    if value is _STALL:
                        return "stall", None
                    values.append(value)
            regs[dst] = impl(values)
            return "ok", None

        return run

    def _make_branch(self, instr: Branch):
        target = self.program.target(instr.target)
        if instr.cond == "al":

            def run_always(cycle: int) -> Tuple[str, Optional[str]]:
                self._branch_target = target
                return "branch", None

            return run_always
        impl = _BRANCH_IMPLS[instr.cond]
        imm1, src1 = _scalar_spec(instr.src1)
        imm2, src2 = _scalar_spec(instr.src2)
        read_reg = self._read_reg

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            lhs = src1 if imm1 else read_reg(src1, cycle)
            rhs = src2 if imm2 else read_reg(src2, cycle)
            if lhs is _STALL or rhs is _STALL:
                return "stall", None
            if impl(lhs, rhs):
                self._branch_target = target
                return "branch", None
            return "ok", None

        return run

    def _make_addvl(self, instr: AddVL):
        imm, src = _scalar_spec(instr.src)
        dst = instr.dst
        elem_bytes = instr.elem_bytes
        read_reg = self._read_reg
        row = self.coproc.resource_table._cores[self.core_id]

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            value = src if imm else read_reg(src, cycle)
            if value is _STALL:
                return "stall", None
            self.regs[dst] = value + row.vl * 16 // elem_bytes
            return "ok", None

        return run

    def _make_halt(self):
        def run(cycle: int) -> Tuple[str, Optional[str]]:
            self.halted = True
            return "ok", None

        return run

    def _make_msr(self, instr: MSR):
        imm, src = _scalar_spec(instr.src)
        sysreg = instr.sysreg
        core_id = self.core_id
        read_reg = self._read_reg
        entries, capacity, push, next_seq, row = self._ports()

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            if len(entries) >= capacity:
                return "stall", None
            value = src if imm else read_reg(src, cycle)
            if value is _STALL:
                return "stall", None
            entry = DynamicInstruction(
                seq=next_seq(),
                core=core_id,
                kind=EntryKind.EMSIMD,
                instr=instr,
                vl_lanes=row.vl,
                transmit_cycle=cycle,
                sysreg=sysreg,
                value=value,
            )
            push(entry)
            self.retired_vector += 1
            return "ok", None

        return run

    def _make_mrs(self, instr: MRS):
        sysreg = instr.sysreg
        dst = instr.dst
        coproc = self.coproc
        core_id = self.core_id
        synchronising = sysreg is not SystemRegister.DECISION
        in_flight_emsimd = coproc.pools[core_id]._emsimd_seqs

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            if synchronising and in_flight_emsimd:
                return "stall", "reconfig"
            self.regs[dst] = coproc.read_sysreg(core_id, sysreg)
            return "ok", None

        return run

    def _make_whilelt(self, instr: WhileLT):
        counter_imm, counter = _scalar_spec(instr.counter)
        limit_imm, limit = _scalar_spec(instr.limit)
        pdst = instr.pdst.name
        core_id = self.core_id
        read_reg = self._read_reg
        pregs = self.pregs
        last_writer = self._last_writer
        entries, capacity, push, next_seq, row = self._ports()

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            if len(entries) >= capacity:
                return "stall", None
            low = counter if counter_imm else read_reg(counter, cycle)
            high = limit if limit_imm else read_reg(limit, cycle)
            if low is _STALL or high is _STALL:
                return "stall", None
            active = int(high) - int(low)
            elems = row.vl * ELEMS_PER_LANE
            if active > elems:
                active = elems
            if active < 0:
                active = 0
            pregs[pdst] = active
            # Predicate generation occupies no FP lanes (``vl_lanes`` 0).
            entry = DynamicInstruction(next_seq(), core_id, _COMPUTE, instr, 0, cycle)
            last_writer[pdst] = entry
            push(entry)
            self.retired_vector += 1
            return "ok", None

        return run

    def _make_vop(self, instr: VOp):
        impl = _VOP_IMPLS[instr.op]
        src_specs = tuple(_vector_spec(src) for src in instr.srcs)
        dst = instr.dst.name
        pred = instr.pred.name if instr.pred else None
        dep_names = tuple(
            src.name for src in instr.srcs if isinstance(src, VReg)
        ) + ((pred,) if pred else ())
        # With a vector-register operand ``impl`` returns a fresh float32
        # array of the active length; with scalars only, a scalar.
        has_vreg = any(kind == _V_VREG for kind, _ in src_specs)
        flops_per_element = instr.flops_per_element
        long_latency = instr.is_long_latency
        core_id = self.core_id
        read_reg = self._read_reg
        vregs = self.vregs
        pregs = self.pregs
        last_writer = self._last_writer
        entries, capacity, push, next_seq, row = self._ports()

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            if len(entries) >= capacity:
                return "stall", None
            elems = row.vl * ELEMS_PER_LANE
            active = elems if pred is None else pregs.get(pred, 0)
            operands = []
            for kind, payload in src_specs:
                if kind == _V_VREG:
                    value = vregs.get(payload)
                    if value is None or len(value) != active:
                        value = _fit(value, active)
                elif kind == _V_SCALAR:
                    value = read_reg(payload, cycle)
                    if value is _STALL:
                        return "stall", None
                    value = _F32(value)
                else:
                    value = payload  # immediate, already an np.float32
                operands.append(value)
            if has_vreg and active >= elems and active > 0:
                # Every lane of the destination is written: the result is
                # the register (no merge, no tail).
                vregs[dst] = impl(operands)
            else:
                # Merging predication: inactive lanes keep the old
                # destination value (SVE /M), which reduction accumulators
                # rely on in tail iterations.
                width = elems if elems > active else active
                old = vregs.get(dst)
                result = _zeros(width, _F32)
                if old is not None:
                    span = min(len(old), width)
                    result[:span] = old[:span]
                if active > 0:
                    result[:active] = impl(operands)
                vregs[dst] = result
            entry = DynamicInstruction(
                next_seq(),
                core_id,
                _COMPUTE,
                instr,
                row.vl,
                cycle,
                tuple([last_writer[name] for name in dep_names if name in last_writer]),
                0,
                0,
                flops_per_element * active,
                long_latency,
                True,
            )
            last_writer[dst] = entry
            push(entry)
            self.retired_vector += 1
            return "ok", None

        return run

    def _make_vload(self, instr: VLoad):
        dst = instr.dst.name
        array_name = instr.array
        index_imm, index_payload = _scalar_spec(instr.index)
        pred = instr.pred.name if instr.pred else None
        stride = instr.stride
        elem_bytes = instr.elem_bytes
        dep_names = (pred,) if pred else ()
        core_id = self.core_id
        read_reg = self._read_reg
        vregs = self.vregs
        pregs = self.pregs
        last_writer = self._last_writer
        array_of = self.image.array
        bases = self.image._bases
        entries, capacity, push, next_seq, row = self._ports()

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            if len(entries) >= capacity:
                return "stall", None
            index = index_payload if index_imm else read_reg(index_payload, cycle)
            if index is _STALL:
                return "stall", None
            index = int(index)
            elems = row.vl * ELEMS_PER_LANE
            active = elems if pred is None else pregs.get(pred, 0)
            array = array_of(array_name)
            span = (active - 1) * stride + 1 if active > 0 else 0
            if active > 0 and index + span > len(array):
                raise SimulationError(
                    f"core {core_id}: load of {array_name}"
                    f"[{index}:{index + span}:{stride}] overruns "
                    f"length {len(array)}"
                )
            if active >= elems and active > 0:
                # Every lane is loaded: a copy of the (float32) span is the
                # register, never a view of the image.
                value = array[index : index + span : stride].copy()
            else:
                value = _zeros(elems if elems > active else active, _F32)
                if active > 0:
                    value[:active] = array[index : index + span : stride]
            vregs[dst] = value
            entry = DynamicInstruction(
                next_seq(),
                core_id,
                _LOAD,
                instr,
                row.vl,
                cycle,
                tuple([last_writer[name] for name in dep_names if name in last_writer]),
                bases[array_name] + index * elem_bytes,
                # A strided access touches every line in its span.
                span * elem_bytes,
                0,
                False,
                True,
            )
            last_writer[dst] = entry
            push(entry)
            self.retired_vector += 1
            return "ok", None

        return run

    def _make_vstore(self, instr: VStore):
        src = instr.src.name
        array_name = instr.array
        index_imm, index_payload = _scalar_spec(instr.index)
        pred = instr.pred.name if instr.pred else None
        elem_bytes = instr.elem_bytes
        dep_names = (src,) + ((pred,) if pred else ())
        core_id = self.core_id
        read_reg = self._read_reg
        vregs = self.vregs
        pregs = self.pregs
        last_writer = self._last_writer
        array_of = self.image.array
        bases = self.image._bases
        entries, capacity, push, next_seq, row = self._ports()

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            if len(entries) >= capacity:
                return "stall", None
            index = index_payload if index_imm else read_reg(index_payload, cycle)
            if index is _STALL:
                return "stall", None
            index = int(index)
            active = row.vl * ELEMS_PER_LANE if pred is None else pregs.get(pred, 0)
            array = array_of(array_name)
            if active > 0 and index + active > len(array):
                raise SimulationError(
                    f"core {core_id}: store to {array_name}"
                    f"[{index}:{index + active}] overruns length {len(array)}"
                )
            if active > 0:
                value = vregs.get(src)
                if value is None or len(value) != active:
                    value = _fit(value, active)
                array[index : index + active] = value
            entry = DynamicInstruction(
                next_seq(),
                core_id,
                _STORE,
                instr,
                row.vl,
                cycle,
                tuple([last_writer[name] for name in dep_names if name in last_writer]),
                bases[array_name] + index * elem_bytes,
                active * elem_bytes,
            )
            push(entry)
            self.retired_vector += 1
            return "ok", None

        return run

    def _make_vhreduce(self, instr: VHReduce):
        op = instr.op
        dst = instr.dst
        src = instr.src.name
        pred = instr.pred.name if instr.pred else None
        dep_names = (src,) + ((pred,) if pred else ())
        core_id = self.core_id
        vregs = self.vregs
        pregs = self.pregs
        last_writer = self._last_writer
        entries, capacity, push, next_seq, row = self._ports()

        def run(cycle: int) -> Tuple[str, Optional[str]]:
            if len(entries) >= capacity:
                return "stall", None
            active = row.vl * ELEMS_PER_LANE if pred is None else pregs.get(pred, 0)
            if active > 0:
                source = vregs.get(src)
                if source is None or len(source) != active:
                    source = _fit(source, active)
                if op == "add":
                    value = float(np.add.reduce(source, dtype=np.float64))
                elif op == "max":
                    value = float(np.max(source))
                else:
                    value = float(np.min(source))
            else:
                value = 0.0
            self.regs[dst] = value
            entry = DynamicInstruction(
                seq=next_seq(),
                core=core_id,
                kind=_COMPUTE,
                instr=instr,
                vl_lanes=row.vl,
                transmit_cycle=cycle,
                deps=tuple(
                    [last_writer[name] for name in dep_names if name in last_writer]
                ),
                flops=active,
                writes_vreg=False,
                scalar_dst=dst,
            )
            self._pending_scalar[dst] = entry
            push(entry)
            self.retired_vector += 1
            return "ok", None

        return run
