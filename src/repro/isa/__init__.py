"""The EM-SIMD instruction set (paper §3.2) plus the mini host ISA.

Three instruction families exist, mirroring Table 2 of the paper:

* **Scalar** — a small ARM-flavoured register machine (``ScalarOp``,
  ``Branch``, ``AddVL``...) interpreted by the scalar cores;
* **SVE** — vector-length-agnostic vector compute and load/store
  instructions (``VOp``, ``VLoad``, ``VStore``, ``WhileLT``...) executed by
  the shared co-processor;
* **EM-SIMD** — ``MSR``/``MRS`` accesses to the five dedicated registers of
  Table 1 (``<OI>``, ``<decision>``, ``<VL>``, ``<status>``, ``<AL>``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.isa.assembler import assemble, disassemble, parse_line
    from repro.isa.instructions import (
        MRS,
        MSR,
        AddVL,
        Branch,
        Halt,
        Instruction,
        InstructionClass,
        Label,
        ScalarOp,
        VHReduce,
        VLoad,
        VOp,
        VStore,
        WhileLT,
    )
    from repro.isa.operands import Imm, PReg, ScalarRef, VReg, operand_repr
    from repro.isa.program import Program, ProgramBuilder
    from repro.isa.registers import (
        AL,
        DECISION,
        OI,
        STATUS,
        VL,
        OIValue,
        SystemRegister,
    )

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.isa.assembler": ("assemble", "disassemble", "parse_line"),
        "repro.isa.instructions": (
            "AddVL", "Branch", "Halt", "Instruction", "InstructionClass", "Label",
            "MRS", "MSR", "ScalarOp", "VHReduce", "VLoad", "VOp", "VStore", "WhileLT"
        ),
        "repro.isa.operands": ("Imm", "PReg", "ScalarRef", "VReg", "operand_repr"),
        "repro.isa.program": ("Program", "ProgramBuilder"),
        "repro.isa.registers": (
            "AL", "DECISION", "OI", "OIValue", "STATUS", "SystemRegister", "VL"
        ),
    },
)
