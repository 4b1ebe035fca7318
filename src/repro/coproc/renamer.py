"""The register renamer and its physical-register freelist (Fig. 5).

Physical vector registers live in RegBlks — one 128-bit slice per owned
lane.  Because an architectural register at vector length *l* consumes one
slice in each of the core's *l* RegBlks, capacity counted in *architectural
register units* is simply ``vregs_per_block`` per ownership domain:

* **Spatial sharing** (Private / VLS / Occamy): each core's architectural
  context resides only in its own RegBlks, so every core gets a private
  freelist of ``vregs_per_block - arch_vregs`` in-flight registers.
* **Temporal sharing** (FTS): every core's full-width context must be
  resident in *every* RegBlk simultaneously.  Per §7.6 FTS maintains the
  same number of physical registers *per core* as the two-core case (the
  +33.5% area at four cores), so the shared freelist is
  ``(vregs_per_block/2 - arch_vregs) * num_cores``.  All cores allocate
  from it — the register pressure behind the paper's Fig. 13 renaming
  stalls.  A small per-core reservation keeps one memory-hungry core from
  starving the others outright (the hardware's FCFS rename would otherwise
  deadlock-prone-ly hand every register to whoever asks fastest).
"""

from __future__ import annotations

from typing import List

from repro.common.config import VectorConfig
from repro.common.errors import ConfigurationError, ProtocolError

#: Registers every other core is guaranteed under temporal sharing.
SHARED_MIN_RESERVE = 16


class Renamer:
    """Freelist accounting for in-flight vector register writes."""

    def __init__(self, config: VectorConfig, num_cores: int, shared: bool) -> None:
        self.config = config
        self.num_cores = num_cores
        self.shared = shared
        per_core_share = config.vregs_per_block // 2
        if shared:
            pool = (per_core_share - config.arch_vregs) * num_cores
            if pool < 1:
                raise ConfigurationError(
                    "temporal sharing needs vregs_per_block/2 > "
                    f"{config.arch_vregs} architectural registers"
                )
            self._free: List[int] = [pool]
            self._held = [0] * num_cores
            self._hold_cap = max(
                SHARED_MIN_RESERVE, pool - SHARED_MIN_RESERVE * (num_cores - 1)
            )
        else:
            pool = config.vregs_per_block - config.arch_vregs
            self._free = [pool] * num_cores
            self._held = [0] * num_cores
            self._hold_cap = pool
        self._capacity = list(self._free)
        #: Runtime invariant auditor (``REPRO_AUDIT``); when set, every
        #: allocate/release re-checks the freelist bounds.
        self.auditor = None

    def _slot(self, core: int) -> int:
        return 0 if self.shared else core

    def capacity(self, core: int) -> int:
        """Freelist size of the pool serving ``core``."""
        return self._capacity[self._slot(core)]

    def available(self, core: int) -> int:
        """Free physical registers currently available to ``core``: the
        pool's free count, bounded by the core's fairness cap under
        temporal sharing.  At zero a new write is a renaming stall."""
        pool = self._free[0 if self.shared else core]
        headroom = self._hold_cap - self._held[core]
        return pool if pool < headroom else headroom

    def allocate_batch(self, core: int, count: int) -> None:
        """Claim ``count`` physical registers for new in-flight writes.

        The one-pass dispatch counts availability down from
        :meth:`available` as it admits each write, and settles here once
        per core-cycle.
        """
        if count <= 0:
            return
        slot = 0 if self.shared else core
        free = self._free
        held = self._held
        if free[slot] < count or self._hold_cap - held[core] < count:
            raise ProtocolError(
                f"batch allocation of {count} registers for core {core} "
                f"exceeds availability {self.available(core)}"
            )
        free[slot] -= count
        held[core] += count
        if self.auditor is not None:
            self.auditor.on_renamer(self)

    def release_batch(self, core: int, count: int) -> None:
        """Return ``count`` physical registers at commit of their in-flight
        writes (one call per committed prefix)."""
        if count <= 0:
            return
        slot = 0 if self.shared else core
        if self._held[core] < count or self._free[slot] + count > self._capacity[slot]:
            raise ProtocolError("renamer freelist overflow (double release)")
        self._free[slot] += count
        self._held[core] -= count
        if self.auditor is not None:
            self.auditor.on_renamer(self)

    def in_flight(self, core: int) -> int:
        """Registers currently held by in-flight writes of ``core``."""
        return self._held[core]
