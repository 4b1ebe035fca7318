"""Per-core load/store unit (LSU) of the co-processor.

The LSU turns one SVE ld/st uop into a byte-ranged request against the
shared :class:`~repro.memory.hierarchy.VectorMemorySystem`, after the MOB
clears address-overlap hazards.  Its throughput — ``ldst_issue_width`` uops
per cycle, each moving ``VL * 16`` bytes — is exactly the paper's SIMD
issue bandwidth (Eq. 2), which becomes the memory bottleneck at small
vector lengths (Fig. 7).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import SimulationError
from repro.memory.hierarchy import AccessResult, VectorMemorySystem
from repro.memory.mob import MemoryOrderingBuffer


@dataclass
class LsuStats:
    """Traffic counters for one core's LSU."""

    loads: int = 0
    stores: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0
    vec_cache_hits: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0


class LoadStoreUnit:
    """One core's vector load/store pipeline."""

    def __init__(
        self,
        core_id: int,
        memory: VectorMemorySystem,
        store_queue_entries: int = 16,
    ) -> None:
        self.core_id = core_id
        self.memory = memory
        self.store_queue_entries = store_queue_entries
        self.mob = MemoryOrderingBuffer()
        self.stats = LsuStats()
        self._store_completions: deque = deque()
        #: Runtime invariant auditor (``REPRO_AUDIT``); when set, every
        #: issued access re-checks completion and STQ ordering.
        self.auditor = None

    def stq_occupancy(self, cycle: float) -> int:
        """Occupied STQ entries once completed stores have retired at ``cycle``.

        The narrowed batch-dispatch interface: the one-pass dispatch reads
        the occupancy at the top of its walk (and again after a zero-byte
        access) and counts its own stores, instead of re-asking
        :meth:`store_queue_full` per entry the way the reference scan does.  Both observe the same
        drained queue (retirement is idempotent within a cycle).
        """
        self._drain_stores(cycle)
        return len(self._store_completions)

    def store_queue_full(self, cycle: float) -> bool:
        """True when a new store would have no STQ entry this cycle."""
        return self.stq_occupancy(cycle) >= self.store_queue_entries

    def _drain_stores(self, cycle: float) -> None:
        while self._store_completions and self._store_completions[0] <= cycle:
            self._store_completions.popleft()

    def issue(self, addr: int, nbytes: int, cycle: float, is_store: bool) -> AccessResult:
        """Issue one ld/st uop at ``cycle``; returns its completion."""
        if nbytes < 0:
            raise SimulationError("negative access size")
        start = self.mob.earliest_start(addr, nbytes, cycle, is_store)
        result = self.memory.access(addr, nbytes, start, is_store)
        self.mob.track(addr, nbytes, result.complete_cycle, is_store)
        if is_store:
            self.stats.stores += 1
            self.stats.bytes_stored += nbytes
            completion = result.complete_cycle
            if self._store_completions and completion < self._store_completions[-1]:
                completion = self._store_completions[-1]  # FIFO retirement
            self._store_completions.append(completion)
        else:
            self.stats.loads += 1
            self.stats.bytes_loaded += nbytes
        self.stats.vec_cache_hits += result.vec_cache_hits
        self.stats.l2_hits += result.l2_hits
        self.stats.dram_accesses += result.dram_accesses
        if self.auditor is not None:
            self.auditor.on_lsu_issue(self, cycle, result)
        return result

    def on_cycle(self, cycle: float) -> None:
        """Housekeeping: retire completed stores from the STQ model."""
        self._drain_stores(cycle)

    def next_store_retire(self, cycle: float) -> Optional[float]:
        """Earliest future cycle a queued store retires (frees an STQ slot).

        Next-event hook for the idle-cycle fast-forward: an STQ-full stall
        can only clear when the oldest outstanding store completes.
        """
        for completion in self._store_completions:
            if completion > cycle:
                return completion
        return None
