"""Program container and builder.

A :class:`Program` is an immutable instruction sequence with resolved labels.
:class:`ProgramBuilder` is the emission API used by the compiler back end
and by hand-written tests/examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import AssemblyError
from repro.isa.instructions import (
    Branch,
    Halt,
    Instruction,
    Label,
)


@dataclass(frozen=True)
class Program:
    """An assembled program: instructions plus a label->index map."""

    instructions: Tuple[Instruction, ...]
    labels: Dict[str, int] = field(default_factory=dict)
    name: str = "program"
    #: Compiler-provided metadata: ``phase_ois`` (list of OIValue),
    #: ``monitor`` / ``reconfig`` (sets of instrumentation instruction
    #: indices used for the Fig. 15 overhead accounting).
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for instr in self.instructions:
            if isinstance(instr, Branch) and instr.target not in self.labels:
                raise AssemblyError(
                    f"{self.name}: branch to undefined label {instr.target!r}"
                )
        if not any(isinstance(i, Halt) for i in self.instructions):
            raise AssemblyError(f"{self.name}: program has no halt instruction")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def target(self, label: str) -> int:
        """Instruction index of ``label``."""
        try:
            return self.labels[label]
        except KeyError as exc:
            raise AssemblyError(f"undefined label {label!r}") from exc

    def disassemble(self) -> str:
        """Readable listing, one instruction per line."""
        lines: List[str] = []
        for index, instr in enumerate(self.instructions):
            if isinstance(instr, Label):
                lines.append(instr.text())
            else:
                lines.append(f"  {index:4d}  {instr.text()}")
        return "\n".join(lines)


class ProgramBuilder:
    """Incremental program construction with label management.

    >>> b = ProgramBuilder("demo")
    >>> b.label("top")
    >>> b.emit(Halt())
    >>> program = b.build()
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self.meta: Dict[str, object] = {}
        self._instructions: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._fresh_counter = 0

    def emit(self, instruction: Instruction) -> None:
        """Append one instruction."""
        self._instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions."""
        for instruction in instructions:
            self.emit(instruction)

    def label(self, name: str) -> str:
        """Define ``name`` at the current position; returns the name."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        self._instructions.append(Label(name))
        return name

    def fresh_label(self, hint: str = "L") -> str:
        """Generate a unique label name (not yet placed)."""
        self._fresh_counter += 1
        return f".{hint}{self._fresh_counter}"

    @property
    def position(self) -> int:
        """Index the next emitted instruction will occupy."""
        return len(self._instructions)

    def build(self) -> Program:
        """Assemble into an immutable :class:`Program` (validates labels)."""
        return Program(
            instructions=tuple(self._instructions),
            labels=dict(self._labels),
            name=self.name,
            meta=dict(self.meta),
        )
