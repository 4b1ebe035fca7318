"""Program container and builder."""

import pytest

from repro.common.errors import AssemblyError
from repro.isa.instructions import Branch, Halt, ScalarOp
from repro.isa.operands import Imm
from repro.isa.program import Program, ProgramBuilder


def _simple_builder():
    builder = ProgramBuilder("demo")
    builder.label("top")
    builder.emit(ScalarOp("mov", "X0", (Imm(1),)))
    builder.emit(Branch("ne", "top", "X0", Imm(1)))
    builder.emit(Halt())
    return builder


class TestBuilder:
    def test_build_and_target(self):
        program = _simple_builder().build()
        assert program.target("top") == 0
        assert len(program) == 4

    def test_duplicate_label_rejected(self):
        builder = _simple_builder()
        with pytest.raises(AssemblyError):
            builder.label("top")

    def test_fresh_labels_unique(self):
        builder = ProgramBuilder()
        names = {builder.fresh_label("L") for _ in range(100)}
        assert len(names) == 100

    def test_meta_propagates(self):
        builder = _simple_builder()
        builder.meta["monitor"] = frozenset({1})
        program = builder.build()
        assert program.meta["monitor"] == frozenset({1})

    def test_position_tracks_labels(self):
        builder = ProgramBuilder()
        assert builder.position == 0
        builder.label("a")
        assert builder.position == 1


class TestProgram:
    def test_undefined_branch_target_rejected(self):
        builder = ProgramBuilder()
        builder.emit(Branch("al", "nowhere"))
        builder.emit(Halt())
        with pytest.raises(AssemblyError):
            builder.build()

    def test_halt_required(self):
        builder = ProgramBuilder()
        builder.emit(ScalarOp("mov", "X0", (Imm(1),)))
        with pytest.raises(AssemblyError):
            builder.build()

    def test_unknown_label_lookup(self):
        program = _simple_builder().build()
        with pytest.raises(AssemblyError):
            program.target("nope")

    def test_disassemble_contains_labels_and_instrs(self):
        text = _simple_builder().build().disassemble()
        assert "top:" in text
        assert "halt" in text
