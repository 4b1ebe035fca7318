"""Memory Ordering Buffer (paper §4.1.2).

The MOB tracks byte regions with at least one incomplete SVE ld/st, so a
younger access that overlaps an older incomplete *store* is delayed until
that store completes.  Functional correctness in this model is guaranteed by
in-order per-core execution; the MOB contributes the *timing* of
address-overlap hazards and is exercised directly by the ordering tests.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Tuple

#: One in-flight region: ``(start, end (exclusive), complete_cycle, is_store)``.
_Entry = Tuple[int, int, float, bool]

_complete_cycle = itemgetter(2)


class MemoryOrderingBuffer:
    """Tracks in-flight vector memory regions for one core."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("MOB capacity must be positive")
        self.capacity = capacity
        self._entries: List[_Entry] = []
        self.conflicts_detected = 0

    def _prune(self, cycle: float) -> None:
        self._entries = [e for e in self._entries if e[2] > cycle]

    def earliest_start(self, addr: int, nbytes: int, cycle: float, is_store: bool) -> float:
        """Earliest cycle a new access to ``[addr, addr+nbytes)`` may begin.

        Ordering rules: any access must wait for older overlapping *stores*;
        a store must additionally wait for older overlapping *loads*
        (write-after-read).  Entries complete at or before ``cycle`` are
        dropped — the list is rebuilt only when there is one.
        """
        start = float(cycle)
        end = addr + nbytes
        expired = False
        for entry_start, entry_end, complete, entry_store in self._entries:
            if complete <= cycle:
                expired = True
            elif entry_end <= addr or entry_start >= end:
                continue
            elif (entry_store or is_store) and complete > start:
                start = complete
                self.conflicts_detected += 1
        if expired:
            self._prune(cycle)
        return start

    def track(self, addr: int, nbytes: int, complete_cycle: float, is_store: bool) -> None:
        """Record an access that will complete at ``complete_cycle``."""
        if len(self._entries) >= self.capacity:
            # A full MOB stalls allocation; model by dropping the oldest
            # completed entries first, then the oldest outstanding one.
            self._entries.sort(key=_complete_cycle)
            self._entries.pop(0)
        self._entries.append((addr, addr + nbytes, complete_cycle, is_store))

    def outstanding(self, cycle: float) -> int:
        """Number of regions still incomplete at ``cycle``."""
        self._prune(cycle)
        return len(self._entries)
