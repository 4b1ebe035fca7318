"""What goes into a simulation and what comes out: :class:`Job`, :class:`RunResult`.

A leaf of the import graph: the cache, the sweep engine and the report
read and write these without loading the engine that produces them
(:mod:`repro.core.machine`, which re-exports both under their old path —
entries pickled as ``repro.core.machine.RunResult`` still load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.common.config import MachineConfig
    from repro.coproc.metrics import Metrics
    from repro.isa.program import Program
    from repro.memory.image import MemoryImage


@dataclass
class Job:
    """One workload: a compiled program plus its functional memory."""

    program: Program
    image: MemoryImage


@dataclass
class RunResult:
    """Everything a simulation produced."""

    policy_key: str
    config: MachineConfig
    metrics: Metrics
    total_cycles: int
    core_cycles: List[int]
    images: List[Optional[MemoryImage]]
    lane_manager: object
    #: Per-core LSU traffic statistics (loads/stores/bytes, hit levels).
    lsu_stats: List[object] = field(default_factory=list)
    #: Cache tag statistics: {"vec_cache": CacheStats, "l2": CacheStats}.
    cache_stats: Dict[str, object] = field(default_factory=dict)

    def core_time(self, core: int) -> int:
        """Cycles until core ``core``'s workload completed."""
        return self.core_cycles[core]

    def speedup_over(self, baseline: "RunResult", core: int) -> float:
        """Per-core speedup relative to a baseline run (paper Fig. 10)."""
        mine = self.core_time(core)
        theirs = baseline.core_time(core)
        if mine <= 0:
            return float("inf")
        return theirs / mine
