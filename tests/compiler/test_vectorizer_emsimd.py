"""Vectorization and the Fig. 9 EM-SIMD code structure."""

import pytest

from repro.common.errors import VectorizationError
from repro.compiler.ir import Assign, BinOp, Const, Kernel, Load, Loop, Reduce
from repro.compiler.pipeline import CompileOptions, compile_kernel
from repro.compiler.vectorizer import vectorize_loop
from repro.isa.instructions import (
    MRS,
    MSR,
    AddVL,
    VLoad,
    VOp,
    VStore,
    WhileLT,
)
from repro.isa.registers import DECISION, OI, STATUS, VL, SystemRegister
from tests.conftest import make_axpy, make_reduction, make_stencil


class TestVectorizer:
    def test_register_assignment_unique(self):
        vloop = vectorize_loop(make_stencil().loops[0])
        regs = list(vloop.reg_of.values())
        assert len(regs) == len(set(regs))

    def test_reduction_gets_accumulator_and_scratch(self):
        vloop = vectorize_loop(make_reduction().loops[0])
        assert "acc" in vloop.acc_regs
        assert vloop.scratch is not None

    def test_shift_collection(self):
        vloop = vectorize_loop(make_stencil().loops[0])
        assert vloop.shifts == (-1, 1)

    def test_register_overflow_detected(self):
        # A body with far more than 32 distinct values.
        body = tuple(
            Assign(f"out{i}", BinOp("mul", Load("a"), Const(1.0 + i)))
            for i in range(3)
        )
        expr = Load("a")
        for i in range(40):
            expr = BinOp("add", expr, Const(float(i + 2)))
        loop = Loop("big", trip_count=64, body=body + (Assign("z", expr),))
        with pytest.raises(VectorizationError):
            vectorize_loop(loop)


def _instrs(kernel, **options):
    return list(compile_kernel(kernel, CompileOptions(**options)))


class TestFig9Structure:
    def test_prologue_writes_oi_then_vl(self):
        instrs = _instrs(make_axpy())
        msr_targets = [i.sysreg for i in instrs if isinstance(i, MSR)]
        # OI first; VL spin follows; epilogue ends with OI=0 then VL=0.
        assert msr_targets[0] is SystemRegister.OI
        assert SystemRegister.VL in msr_targets

    def test_monitor_reads_decision_per_iteration(self):
        instrs = _instrs(make_axpy())
        decision_reads = [
            i for i in instrs if isinstance(i, MRS) and i.sysreg is DECISION
        ]
        assert decision_reads  # the lazy partition monitor exists

    def test_elastic_false_removes_monitor(self):
        program = compile_kernel(make_axpy(), CompileOptions(elastic=False))
        assert program.meta["monitor"] == frozenset()

    def test_strip_body_predicated(self):
        instrs = _instrs(make_axpy())
        assert any(isinstance(i, WhileLT) for i in instrs)
        loads = [i for i in instrs if isinstance(i, VLoad)]
        assert loads and all(load.pred is not None for load in loads)

    def test_induction_advances_by_vl(self):
        instrs = _instrs(make_axpy())
        assert any(isinstance(i, AddVL) for i in instrs)

    def test_meta_instrumentation_sets(self):
        program = compile_kernel(make_axpy())
        monitor = program.meta["monitor"]
        reconfig = program.meta["reconfig"]
        assert monitor and reconfig
        assert not monitor & reconfig

    def test_phase_ois_in_meta(self):
        program = compile_kernel(make_axpy())
        assert len(program.meta["phase_ois"]) == 1

    def test_stencil_emits_shifted_index_loads(self):
        instrs = _instrs(make_stencil())
        load_indices = {i.index for i in instrs if isinstance(i, VLoad)}
        assert "Xi" in load_indices
        assert any(index.startswith("Xsh_") for index in load_indices)

    def test_reduction_emits_splice_and_store(self):
        instrs = _instrs(make_reduction())
        # The reduction result is materialised via a one-element store.
        stores = [i for i in instrs if isinstance(i, VStore) and i.array == "acc"]
        assert len(stores) == 1

    def test_multi_phase_kernel_has_per_phase_markers(self):
        two = Kernel(
            "two", array_length=128,
            loops=(
                Loop("p1", trip_count=128, body=(Assign("b", Load("a")),)),
                Loop("p2", trip_count=128, body=(Assign("c", Load("b")),)),
            ),
        )
        instrs = _instrs(two)
        oi_writes = [i for i in instrs if isinstance(i, MSR) and i.sysreg is OI]
        assert len(oi_writes) == 4  # prologue + epilogue per phase
