"""EM-SIMD instrumentation and code generation (paper Fig. 9, §6).

For every phase (vectorized loop) the generated code follows the paper's
eager-lazy lane-partitioning pattern:

* **Phase Prologue** (eager): write the phase's ``<OI>``, synchronise so
  the lane manager's plan is fresh, then spin ``MSR <VL>`` until the
  requested vector length is configured;
* **Partition Monitor** (lazy, per iteration head): speculative
  ``MRS <decision>``; falls through when unchanged;
* **Vector Length Reconfiguration** (lazy): splice partial reductions into
  scalar carries (§6.4), spin ``MSR <VL>`` until success, then re-initialise
  loop-invariant splats and reduction accumulators for the new length;
* **Phase Epilogue** (eager): write ``<OI> = 0`` and release all lanes via
  ``MSR <VL>, 0``.

Instrumentation instruction indices are recorded in the builder's ``meta``
(``monitor`` / ``reconfig`` sets) for the Fig. 15 overhead accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.errors import CompilationError
from repro.compiler.vectorizer import REDUCTION_IDENTITY, VectorizedLoop
from repro.isa.instructions import (
    MRS,
    MSR,
    AddVL,
    Branch,
    ScalarOp,
    VHReduce,
    VLoad,
    VOp,
    VStore,
    WhileLT,
)
from repro.isa.operands import Imm, PReg, ScalarRef, VReg
from repro.isa.program import ProgramBuilder
from repro.isa.registers import DECISION, OI, STATUS, VL, OIValue

#: Governing predicate for strip bodies / reduction stores.
P0 = PReg("p0")
P1 = PReg("p1")

#: The compiler-selected default lane count (Fig. 9): requested when the
#: lane manager's decision is still zero.
DEFAULT_VL = 16


class EmSimdCodegen:
    """Emits one kernel's phases into a :class:`ProgramBuilder`.

    ``elastic`` emits the lazy monitor/reconfiguration code; ``unroll`` is
    Fig. 9's strip length ``s`` (see :class:`CompileOptions`).
    """

    def __init__(self, builder: ProgramBuilder, elastic: bool, unroll: int) -> None:
        self.builder = builder
        self.elastic = elastic
        self.unroll = unroll
        self.monitor_idx: Set[int] = set()
        self.reconfig_idx: Set[int] = set()

    # -- small helpers -------------------------------------------------------

    def _mark(self, region: Set[int], start: int) -> None:
        region.update(range(start, self.builder.position))

    def _emit_set_vl(self, source: object, tag: str, track_decision: bool = False) -> None:
        """The spin loop of Fig. 9: retry ``MSR <VL>`` until success.

        With ``track_decision`` the loop re-reads ``<decision>`` on every
        attempt (a speculative, zero-sync read): a co-runner's phase event
        can re-plan while we spin, and retrying a stale request that the
        new plan made infeasible would live-lock until the co-runner
        exits its phase.
        """
        retry = self.builder.fresh_label(tag)
        self.builder.label(retry)
        if track_decision:
            register = source if isinstance(source, str) else "Xd"
            self.builder.emit(MRS(register, DECISION))
            # A zero decision targets idle cores; never drop a running
            # phase to zero lanes — fall back to the compiler default.
            nonzero = self.builder.fresh_label(f"{tag}_nz")
            self.builder.emit(Branch("ne", nonzero, register, Imm(0)))
            self.builder.emit(
                ScalarOp("mov", register, (Imm(DEFAULT_VL),))
            )
            self.builder.label(nonzero)
        self.builder.emit(MSR(VL, source))
        self.builder.emit(MRS("Xs", STATUS))
        self.builder.emit(Branch("ne", retry, "Xs", Imm(1)))

    def emit_params(self, params: Dict[str, float]) -> None:
        """Load kernel parameters into their scalar registers (once)."""
        for name, value in sorted(params.items()):
            self.builder.emit(ScalarOp("mov", f"Xp_{name}", (Imm(float(value)),)))

    # -- one phase ------------------------------------------------------------

    def emit_phase(self, vloop: VectorizedLoop, phase_oi: OIValue) -> None:
        b = self.builder
        loop = vloop.loop
        start_index = loop.max_negative_shift()
        limit_index = start_index + loop.trip_count

        # --- Phase Prologue (eager partitioning) --------------------------
        mark = b.position
        b.emit(ScalarOp("mov", "Xoi", (Imm(phase_oi),)))
        b.emit(MSR(OI, "Xoi"))
        b.emit(MRS("Xs", STATUS))  # synchronise: the plan is now generated
        b.emit(MRS("Xd", DECISION))
        have_dec = b.fresh_label("have_dec")
        b.emit(Branch("ne", have_dec, "Xd", Imm(0)))
        b.emit(ScalarOp("mov", "Xd", (Imm(DEFAULT_VL),)))
        b.label(have_dec)
        self._emit_set_vl("Xd", "setvl", track_decision=True)
        b.emit(ScalarOp("mov", "Xc", ("Xd",)))
        self._mark(self.reconfig_idx, mark)

        # --- invariants + reduction state ---------------------------------
        self._emit_invariants(vloop)
        for name, (op, _acc) in vloop.acc_regs.items():
            b.emit(
                ScalarOp("mov", f"Xr_{name}", (Imm(REDUCTION_IDENTITY[op]),))
            )

        # --- repeat loop (prologue hoisted outside, §6.3) ------------------
        rep_top = b.fresh_label("rep")
        rep_done = b.fresh_label("rep_done")
        b.emit(ScalarOp("mov", "Xrep", (Imm(0),)))
        b.label(rep_top)
        b.emit(Branch("ge", rep_done, "Xrep", Imm(loop.repeats)))
        b.emit(ScalarOp("mov", "Xi", (Imm(start_index),)))
        b.emit(ScalarOp("mov", "Xn", (Imm(limit_index),)))

        loop_top = b.fresh_label("loop")
        loop_exit = b.fresh_label("loop_exit")
        body_label = b.fresh_label("body")
        b.label(loop_top)
        b.emit(Branch("ge", loop_exit, "Xi", "Xn"))

        if self.elastic:
            # --- Partition Monitor (lazy) ----------------------------------
            mark = b.position
            b.emit(MRS("Xd", DECISION))  # speculative read (§4.1.1)
            b.emit(Branch("eq", body_label, "Xd", "Xc"))
            self._mark(self.monitor_idx, mark)
            # --- Vector Length Reconfiguration -----------------------------
            mark = b.position
            self._emit_reduction_splice(vloop)
            self._emit_set_vl("Xd", "revl", track_decision=True)
            b.emit(ScalarOp("mov", "Xc", ("Xd",)))
            self._emit_invariants(vloop)  # re-init for the new length (§6.4)
            self._mark(self.reconfig_idx, mark)

        b.label(body_label)
        # Fig. 9's strip-mined segment: `unroll` body copies per monitor
        # visit, each with its own governing predicate so partial tails
        # are handled without a remainder loop.
        for _copy in range(self.unroll):
            self._emit_strip_body(vloop, start_index)
            b.emit(AddVL("Xi", "Xi"))
        b.emit(Branch("al", loop_top))
        b.label(loop_exit)
        b.emit(ScalarOp("add", "Xrep", ("Xrep", Imm(1))))
        b.emit(Branch("al", rep_top))
        b.label(rep_done)

        # --- reduction finalisation ----------------------------------------
        self._emit_reduction_splice(vloop)
        self._emit_reduction_store(vloop)

        # --- Phase Epilogue (eager partitioning) ---------------------------
        mark = b.position
        b.emit(ScalarOp("mov", "Xoi", (Imm(OIValue.ZERO),)))
        b.emit(MSR(OI, "Xoi"))
        self._emit_set_vl(Imm(0), "vl0")
        self._mark(self.reconfig_idx, mark)

    # -- fragments ------------------------------------------------------------

    def _emit_invariants(self, vloop: VectorizedLoop) -> None:
        """Splat loop-invariant params; reset reduction accumulators."""
        b = self.builder
        for node in vloop.dag.params():
            reg = vloop.reg_of[node.node_id]
            b.emit(VOp("dup", reg, (ScalarRef(f"Xp_{node.param}"),)))
        for _name, (op, acc) in vloop.acc_regs.items():
            b.emit(VOp("dup", acc, (Imm(REDUCTION_IDENTITY[op]),)))

    def _emit_reduction_splice(self, vloop: VectorizedLoop) -> None:
        """Fold vector partials into the scalar carries (§6.4)."""
        b = self.builder
        for name, (op, acc) in vloop.acc_regs.items():
            b.emit(VHReduce(op, f"Xh_{name}", acc))
            b.emit(ScalarOp(_scalar_fold(op), f"Xr_{name}", (f"Xr_{name}", f"Xh_{name}")))
            b.emit(VOp("dup", acc, (Imm(REDUCTION_IDENTITY[op]),)))

    def _emit_reduction_store(self, vloop: VectorizedLoop) -> None:
        """Materialise each reduction result into its one-element array."""
        b = self.builder
        if not vloop.acc_regs:
            return
        scratch = vloop.scratch
        if scratch is None:  # pragma: no cover - allocator guarantees it
            raise CompilationError("reduction without scratch register")
        b.emit(ScalarOp("mov", "Xz", (Imm(0),)))
        b.emit(ScalarOp("mov", "Xone", (Imm(1),)))
        b.emit(WhileLT(P1, "Xz", "Xone"))
        for name in vloop.acc_regs:
            b.emit(VOp("dup", scratch, (ScalarRef(f"Xr_{name}"),)))
            b.emit(VStore(scratch, name, "Xz", pred=P1))

    def _emit_strip_body(self, vloop: VectorizedLoop, start_index: int) -> None:
        """One strip-mined, tail-predicated iteration of the loop body."""
        b = self.builder
        b.emit(WhileLT(P0, "Xi", "Xn"))
        for shift, stride, offset in vloop.index_temps:
            reg = _index_reg(shift, stride, offset)
            cursor = "Xi"
            if shift:
                b.emit(ScalarOp("add", reg, (cursor, Imm(shift))))
                cursor = reg
            if stride != 1:
                b.emit(ScalarOp("mul", reg, (cursor, Imm(stride))))
                cursor = reg
            if offset:
                b.emit(ScalarOp("add", reg, (cursor, Imm(offset))))
        for node in vloop.dag.nodes:
            if node.kind == "load":
                key = (node.shift, node.stride, node.offset)
                index = "Xi" if key == (0, 1, 0) else _index_reg(*key)
                b.emit(
                    VLoad(
                        vloop.reg_of[node.node_id],
                        node.array,
                        index,
                        pred=P0,
                        stride=node.stride,
                    )
                )
            elif node.kind == "compute":
                srcs = tuple(
                    self._operand(vloop, operand) for operand in node.operands
                )
                b.emit(VOp(_vector_op(node.op), vloop.reg_of[node.node_id], srcs, pred=P0))
        for array, node_id in vloop.dag.stores:
            b.emit(VStore(vloop.reg_of[node_id], array, "Xi", pred=P0))
        for op, name, node_id in vloop.dag.reductions:
            _op, acc = vloop.acc_regs[name]
            source = self._operand(vloop, node_id)
            b.emit(VOp(_vector_op(op), acc, (acc, source), pred=P0))

    def _operand(self, vloop: VectorizedLoop, node_id: int) -> object:
        node = vloop.dag.node(node_id)
        if node.kind == "const":
            return Imm(float(node.value))
        return vloop.reg_of[node_id]


def _index_reg(shift: int, stride: int, offset: int) -> str:
    """Scalar register holding the effective index for one load key."""
    if stride == 1 and offset == 0:
        return f"Xsh_{shift}"
    return f"Xsh_{shift}_s{stride}_o{offset}"


def _vector_op(ir_op: str) -> str:
    """IR operator -> vector instruction mnemonic."""
    mapping = {
        "mov": "mov",
        "add": "add",
        "sub": "sub",
        "mul": "mul",
        "div": "div",
        "min": "min",
        "max": "max",
        "sqrt": "sqrt",
        "abs": "abs",
        "neg": "neg",
    }
    try:
        return mapping[ir_op]
    except KeyError as exc:  # pragma: no cover - IR validates ops
        raise CompilationError(f"no vector op for {ir_op!r}") from exc


def _scalar_fold(op: str) -> str:
    """Reduction op -> scalar fold op for the carried partial."""
    return {"add": "add", "min": "min", "max": "max"}[op]
