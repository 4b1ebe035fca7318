"""A set-associative, write-back, write-allocate cache with LRU replacement.

The cache tracks tags only (data values live in :class:`MemoryImage`); its
job is to decide hit/miss per line and to surface dirty-eviction traffic to
the next level.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import CacheConfig
from repro.coproc.metrics import CacheStats  # noqa: F401  (its old path)


class Cache:
    """Tag store for one cache level.

    Each set is a plain ``dict`` mapping line address -> dirty flag; its
    insertion order is the LRU order, least-recently-used first, so a hit
    re-inserts its line and an eviction takes the first key.
    """

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        self.stats = CacheStats()
        # Geometry latched once: ``num_sets`` is a derived property and the
        # per-line methods below run hundreds of thousands of times a run.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._sets: List[Dict[int, bool]] = [{} for _ in range(self._num_sets)]

    def _set_for(self, line_addr: int) -> Dict[int, bool]:
        return self._sets[(line_addr // self._line_bytes) % self._num_sets]

    def line_of(self, addr: int) -> int:
        """The line-aligned address containing byte ``addr``."""
        return addr - (addr % self._line_bytes)

    def lines_spanning(self, addr: int, nbytes: int) -> List[int]:
        """Line addresses touched by ``[addr, addr + nbytes)``."""
        if nbytes <= 0:
            return []
        first = self.line_of(addr)
        last = self.line_of(addr + nbytes - 1)
        step = self._line_bytes
        return list(range(first, last + step, step))

    def probe(self, line_addr: int) -> bool:
        """Check residency without updating LRU state or stats."""
        return line_addr in self._set_for(line_addr)

    def access(self, line_addr: int, is_store: bool) -> bool:
        """Look up one line; returns True on hit and updates LRU/dirty."""
        target_set = self._set_for(line_addr)
        dirty = target_set.pop(line_addr, None)
        if dirty is None:
            self.stats.misses += 1
            return False
        target_set[line_addr] = dirty or is_store
        self.stats.hits += 1
        return True

    def fill(self, line_addr: int, is_store: bool) -> Optional[int]:
        """Install a line after a miss.

        Returns the address of a *dirty* victim line that must be written
        back to the next level, or None when no writeback is needed.
        """
        target_set = self._set_for(line_addr)
        victim: Optional[int] = None
        if line_addr not in target_set and len(target_set) >= self._ways:
            evicted_addr = next(iter(target_set))
            if target_set.pop(evicted_addr):
                self.stats.writebacks += 1
                victim = evicted_addr
        target_set.pop(line_addr, None)
        target_set[line_addr] = is_store
        return victim

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)
