"""Operand kinds shared by scalar and vector instructions.

Scalar registers are plain strings (``"X0"``...), wrapped in
:class:`ScalarRef` when used as a vector-operand broadcast.  Vector and
predicate registers get small value types so instructions can be matched on
operand kind, and immediates are wrapped in :class:`Imm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class VReg:
    """An architectural vector register ``z0``..``z31``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name.startswith("z"):
            raise ValueError(f"vector registers are named z<N>, got {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PReg:
    """An architectural predicate register ``p0``..``p15``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name.startswith("p"):
            raise ValueError(f"predicate registers are named p<N>, got {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ScalarRef:
    """A scalar register used as a vector operand (broadcast splat)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate operand; the value may be a number or an OI pair."""

    value: object

    def __str__(self) -> str:
        return f"#{self.value}"


#: Anything acceptable as a vector-instruction source operand.
VectorOperand = Union[VReg, ScalarRef, Imm]

#: Anything acceptable as a scalar-instruction source operand.
ScalarOperand = Union[str, Imm]

