"""``ResourceTbl`` — the (4*C + 1)-register table of §4.2.1.

Per core it holds the four dedicated registers ``<OI>``, ``<decision>``,
``<VL>`` and ``<status>``; one shared ``<AL>`` register counts free lanes.
The table is the single source of truth the scalar cores, the dispatcher
and the lane manager all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ProtocolError
from repro.isa.registers import OIValue, SystemRegister


@dataclass
class _CoreEntry:
    oi: OIValue = OIValue.ZERO
    decision: int = 0
    vl: int = 0
    status: int = 0


class ResourceTable:
    """Dedicated EM-SIMD registers for ``num_cores`` cores plus ``<AL>``."""

    def __init__(self, num_cores: int, total_lanes: int) -> None:
        self.num_cores = num_cores
        self.total_lanes = total_lanes
        self._cores: List[_CoreEntry] = [_CoreEntry() for _ in range(num_cores)]
        self._free_lanes = total_lanes

    def _entry(self, core: int) -> _CoreEntry:
        try:
            return self._cores[core]
        except IndexError as exc:
            raise ProtocolError(f"no such core {core}") from exc

    # --- reads (MRS) -----------------------------------------------------

    def read(self, core: int, sysreg: SystemRegister) -> object:
        """Read a dedicated register as core ``core`` sees it."""
        entry = self._entry(core)
        if sysreg is SystemRegister.OI:
            return entry.oi
        if sysreg is SystemRegister.DECISION:
            return entry.decision
        if sysreg is SystemRegister.VL:
            return entry.vl
        if sysreg is SystemRegister.STATUS:
            return entry.status
        if sysreg is SystemRegister.AL:
            return self._free_lanes
        raise ProtocolError(f"unknown system register {sysreg}")

    def oi(self, core: int) -> OIValue:
        return self._entry(core).oi

    def decision(self, core: int) -> int:
        return self._entry(core).decision

    def vl(self, core: int) -> int:
        return self._entry(core).vl

    def status(self, core: int) -> int:
        return self._entry(core).status

    @property
    def free_lanes(self) -> int:
        """The shared ``<AL>`` register."""
        return self._free_lanes

    # --- writes ----------------------------------------------------------

    def set_oi(self, core: int, value: OIValue) -> None:
        self._entry(core).oi = value

    def set_decision(self, core: int, lanes: int) -> None:
        if lanes < 0 or lanes > self.total_lanes:
            raise ProtocolError(f"decision {lanes} out of range")
        self._entry(core).decision = lanes

    def apply_vl(self, core: int, lanes: int) -> bool:
        """Atomically retarget core ``core`` to ``lanes`` lanes.

        Implements the §4.2.2 update: succeeds iff
        ``core.<VL> + <AL> >= lanes``; on success ``<AL>`` absorbs the
        difference, ``<VL>`` becomes ``lanes`` and ``<status>`` is set to 1.
        On failure only ``<status>`` is cleared.  Returns success.
        """
        entry = self._entry(core)
        if lanes < 0 or lanes > self.total_lanes:
            raise ProtocolError(f"requested VL {lanes} out of range")
        available = entry.vl + self._free_lanes
        if lanes > available:
            entry.status = 0
            return False
        self._free_lanes = available - lanes
        entry.vl = lanes
        entry.status = 1
        return True

    def force_vl(self, core: int, lanes: int) -> None:
        """Set ``<VL>`` without touching ``<AL>`` (temporal-sharing setup).

        Under FTS every core sees the full lane pool simultaneously; the
        spatial-accounting invariant is deliberately suspended.
        """
        self._entry(core).vl = lanes
        self._entry(core).status = 1

    def running_phases(self) -> Dict[int, OIValue]:
        """Cores currently inside a phase (``<OI>`` != 0) -> their OI."""
        return {
            core: entry.oi
            for core, entry in enumerate(self._cores)
            if not entry.oi.is_phase_end
        }

    def check_invariant(self) -> None:
        """Spatial-mode invariant: allocated + free == total."""
        allocated = sum(entry.vl for entry in self._cores)
        if allocated + self._free_lanes != self.total_lanes:
            raise ProtocolError(
                f"lane accounting broken: {allocated} allocated + "
                f"{self._free_lanes} free != {self.total_lanes} total"
            )
