"""Per-core load/store unit (LSU) of the co-processor.

The LSU turns one SVE ld/st uop into a byte-ranged request against the
shared :class:`~repro.memory.hierarchy.VectorMemorySystem`, after the MOB
clears address-overlap hazards.  Its throughput — ``ldst_issue_width`` uops
per cycle, each moving ``VL * 16`` bytes — is exactly the paper's SIMD
issue bandwidth (Eq. 2), which becomes the memory bottleneck at small
vector lengths (Fig. 7).

This class holds one core's ld/st state — MOB, store queue, traffic
counters; a uop is issued against it by the dispatch walk
(``_issue_memory`` in :mod:`repro.coproc.batch_exec`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.coproc.metrics import LsuStats  # noqa: F401  (its old path)
from repro.memory.hierarchy import VectorMemorySystem
from repro.memory.mob import MemoryOrderingBuffer


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
        #: The STQ: each queued store's retire cycle, in FIFO order.
        self._store_queue: deque = deque()
        #: Runtime invariant auditor (``REPRO_AUDIT``); when set, every
        #: issued access re-checks completion and STQ ordering.
        self.auditor = None

    def stq_occupancy(self, cycle: float) -> int:
        """Occupied STQ entries once completed stores have retired at ``cycle``.

        The one-pass dispatch reads the occupancy at the first store of its
        walk (and again at the first store after a zero-byte access) and
        counts its own stores, refusing one at capacity, so the queue never
        holds more than ``store_queue_entries`` completions.
        """
        queue = self._store_queue
        while queue and queue[0] <= cycle:
            queue.popleft()
        return len(queue)

    def next_store_retire(self, cycle: float) -> Optional[float]:
        """Earliest future cycle a queued store retires (frees an STQ slot).

        Next-event hook for the idle-cycle fast-forward: an STQ-full stall
        can only clear when the oldest outstanding store completes.  Pops
        the stores retired by ``cycle``, as :meth:`stq_occupancy` does.
        """
        queue = self._store_queue
        while queue and queue[0] <= cycle:
            queue.popleft()
        return queue[0] if queue else None
