"""The five dedicated EM-SIMD system registers (paper Table 1).

=============  =================================================
``<OI>``       Operational intensity of the current phase
``<decision>`` Suggested (requested) vector length, in lanes
``<VL>``       Configured (current) vector length, in lanes
``<status>``   Success/fail flag of the last ``MSR <VL>`` attempt
``<AL>``       Number of free SIMD lanes available (shared)
=============  =================================================

The paper expresses vector lengths at a granularity of one 128-bit lane
(``<VL> = 2`` means 256 bits).  ``<OI>`` carries a *pair* of intensities
(Eq. 5): ``issue`` — FLOPs per byte of SIMD ld/st *issue* traffic — and
``mem`` — FLOPs per byte of memory *footprint* (data reuse considered).
A zero ``<OI>`` marks the end of a phase.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ConfigurationError

#: The residency levels of the memory hierarchy (paper Fig. 4 / §5.1).
#: ``OIValue`` is the single validation point for level names — everything
#: downstream (the roofline's hierarchical ceilings, trace serialisation)
#: may assume a level came from this set.
MEMORY_LEVELS = ("vec_cache", "l2", "dram")


class SystemRegister(enum.Enum):
    """Names of the dedicated EM-SIMD registers."""

    OI = "<OI>"
    DECISION = "<decision>"
    VL = "<VL>"
    STATUS = "<status>"
    AL = "<AL>"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Convenience aliases so call sites read like the paper's assembly.
OI = SystemRegister.OI
DECISION = SystemRegister.DECISION
VL = SystemRegister.VL
STATUS = SystemRegister.STATUS
AL = SystemRegister.AL


@dataclass(frozen=True)
class OIValue:
    """The operational-intensity pair written to ``<OI>`` (Eq. 5).

    ``issue``
        FLOPs per byte of data moved by SIMD ld/st *instructions*
        (``<OI>.issue``), bounding performance via the SIMD issue bandwidth.
    ``mem``
        FLOPs per byte of memory *footprint* with data reuse considered
        (``<OI>.mem``), bounding performance via cache/DRAM bandwidth.
    ``level``
        The memory level whose bandwidth ceiling applies — the compiler's
        footprint-residency hint enabling the *hierarchical* roofline the
        paper leverages (§5.1): ``"vec_cache"``, ``"l2"`` or ``"dram"``.

    A phase end is signalled by writing :data:`OIValue.ZERO`.
    """

    issue: float
    mem: float
    level: str = "dram"

    ZERO: "OIValue" = None  # type: ignore[assignment]  # set below

    def __post_init__(self) -> None:
        if not (self.issue >= 0 and self.mem >= 0):  # NaN fails too
            raise ValueError("operational intensities must be non-negative")
        if self.level not in MEMORY_LEVELS:
            raise ConfigurationError(
                f"unknown memory level {self.level!r}; "
                f"expected one of {MEMORY_LEVELS}"
            )

    @property
    def is_phase_end(self) -> bool:
        """True when this value marks the end of a phase (``<OI> = 0``)."""
        return self.issue == 0 and self.mem == 0

    @classmethod
    def uniform(cls, oi: float) -> "OIValue":
        """An OI pair with no data reuse (``issue == mem``, paper §6.3)."""
        return cls(issue=oi, mem=oi)

    def __str__(self) -> str:
        return f"({self.issue:g},{self.mem:g})"


OIValue.ZERO = OIValue(0.0, 0.0)
