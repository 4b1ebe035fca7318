"""ExeBUs and the two configuration tables (``Dispatch.Cfg``/``RegFile.Cfg``).

Each :class:`ExeBU` is a homogeneous 128-bit execution unit hard-wired to
one RegBlk; both are always assigned to the same core together (§4.2.1), so
one :class:`LaneTable` models both configuration tables: entry *i* records
the owner of ExeBU *i* and of RegBlk *i*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ProtocolError

#: Owner value for an unassigned lane.
FREE: Optional[int] = None


@dataclass
class ExeBU:
    """One 128-bit basic execution unit plus its register block."""

    index: int
    owner: Optional[int] = FREE


class LaneTable:
    """Ownership of the N ExeBU/RegBlk pairs (Dispatch.Cfg + RegFile.Cfg).

    Ownership is kept both on the :class:`ExeBU` records (the ground
    truth, used by :meth:`owner_of`/:meth:`ownership_vector`) and in two
    incremental indexes — a sorted free list and a per-core lane-index
    map — so the per-dispatch queries (:meth:`owned_count`,
    :meth:`lanes_of`, :attr:`free_count`) cost O(1)/O(owned) instead of
    scanning all N lanes.  A property test pins the indexes against the
    scan answers across random reconfiguration sequences.
    """

    def __init__(self, total_lanes: int) -> None:
        if total_lanes < 1:
            raise ProtocolError("need at least one lane")
        self.total_lanes = total_lanes
        self._lanes: List[ExeBU] = [ExeBU(index=i) for i in range(total_lanes)]
        #: Unassigned lane indices, ascending (claims take the lowest).
        self._free: List[int] = list(range(total_lanes))
        #: core -> ascending indices of the lanes it owns.
        self._owned: Dict[int, List[int]] = {}
        self.reconfigurations = 0
        #: Runtime invariant auditor (``REPRO_AUDIT``); when set, every
        #: reconfiguration re-checks lane conservation and index agreement.
        self.auditor = None

    def owner_of(self, lane: int) -> Optional[int]:
        """The core owning lane ``lane`` (None when free)."""
        return self._lanes[lane].owner

    def lanes_of(self, core: int) -> List[int]:
        """Indices of the lanes currently owned by ``core``."""
        return list(self._owned.get(core, ()))

    def owned_count(self, core: int) -> int:
        """Number of lanes owned by ``core``."""
        return len(self._owned.get(core, ()))

    @property
    def free_count(self) -> int:
        """Number of unassigned lanes."""
        return len(self._free)

    def reconfigure(self, core: int, lanes: int) -> None:
        """Give ``core`` exactly ``lanes`` lanes (§4.2.2).

        Frees every ExeBU/RegBlk previously owned by ``core``, then claims
        the ``lanes`` lowest-indexed free ones.  Data in freed RegBlks is
        *not* preserved — the compiler guarantees it is dead (§4.2.2).
        """
        if lanes < 0:
            raise ProtocolError("cannot assign a negative lane count")
        released = self._owned.pop(core, [])
        for index in released:
            self._lanes[index].owner = FREE
        if released:
            self._free = self._merge_sorted(self._free, released)
        if lanes > len(self._free):
            raise ProtocolError(
                f"core {core} requested {lanes} lanes but only "
                f"{len(self._free)} are free"
            )
        claimed = self._free[:lanes]
        del self._free[:lanes]
        for index in claimed:
            self._lanes[index].owner = core
        if claimed:
            self._owned[core] = claimed
        self.reconfigurations += 1
        if self.auditor is not None:
            self.auditor.on_lane_table(self)

    @staticmethod
    def _merge_sorted(left: List[int], right: List[int]) -> List[int]:
        """Merge two ascending, disjoint index lists in O(len(left+right)).

        Replaces the ``sorted(left + right)`` on every release — under CTS
        the whole lane pool changes hands each quantum, so the merge is on
        the reconfiguration hot path.
        """
        merged: List[int] = []
        i = j = 0
        nl, nr = len(left), len(right)
        while i < nl and j < nr:
            if left[i] < right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged

    def active_mask(self, core: int) -> List[bool]:
        """Per-lane ownership mask for ``core`` (True = lane active)."""
        mask = [False] * self.total_lanes
        for index in self._owned.get(core, ()):
            mask[index] = True
        return mask

    def ownership_vector(self) -> Sequence[Optional[int]]:
        """Owner of each lane, by lane index (for tests/visualisation)."""
        return tuple(bu.owner for bu in self._lanes)
