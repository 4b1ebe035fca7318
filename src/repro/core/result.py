"""What goes into a simulation and what comes out: :class:`Job`,
:class:`RunResult`, and the engine's :class:`RunProfile` of the run, which
rides on the result (``RunResult.profile``) wherever the result goes.

A leaf of the import graph: the cache, the sweep engine and the report
read and write these without loading the engine that produces them
(:mod:`repro.core.machine`, which re-exports both under their old path —
entries pickled as ``repro.core.machine.RunResult`` still load).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

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
    #: How the engine covered the run's cycles.  Not part of the fingerprint:
    #: it says how the answer was computed, not what it is.  ``None`` on the
    #: oracle's results and on cache entries written before the field existed.
    profile: Optional[RunProfile] = None

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


@dataclass
class RunProfile:
    """Simulated-cycle attribution for one run (the ``--profile`` report)."""

    total_cycles: int = 0
    interpreted_cycles: int = 0
    fastforward_cycles: int = 0
    # Always 0: loop replay is deleted, but the frozen ledger
    # (bench/wl_sim.py::run_counts) still reads these three; they go in the
    # `benchmark` PR of ROADMAP item 1.
    replayed_cycles: int = 0
    templates_built: int = 0
    replay_aborts: int = 0
    #: Per-component (core complex) cycle attribution from the tickless
    #: event-wheel engine: cycles stepped with at least one event, cycles
    #: stepped with none, and cycles skipped while asleep.
    component_busy: List[int] = field(default_factory=list)
    component_idle: List[int] = field(default_factory=list)
    component_asleep: List[int] = field(default_factory=list)
    #: Batch-execute backend attribution: per-core-cycle dispatch calls on
    #: a non-empty pool, uops they issued, and ready-index re-queries after
    #: a zero-byte access (named for the plan segments they once ended).
    batched_dispatch_calls: int = 0
    batched_uops: int = 0
    plan_cuts: int = 0
    # Always 0: the scalar dispatch fallback is deleted; goes with the three
    # replay fields above (ROADMAP item 1(f)).
    scalar_dispatch_calls: int = 0

    def merge(self, other: "RunProfile") -> None:
        self.total_cycles += other.total_cycles
        self.interpreted_cycles += other.interpreted_cycles
        self.fastforward_cycles += other.fastforward_cycles
        self.batched_dispatch_calls += other.batched_dispatch_calls
        self.batched_uops += other.batched_uops
        self.plan_cuts += other.plan_cuts
        self.component_busy = _merge_padded(self.component_busy, other.component_busy)
        self.component_idle = _merge_padded(self.component_idle, other.component_idle)
        self.component_asleep = _merge_padded(
            self.component_asleep, other.component_asleep
        )

    def report(self) -> str:
        """Human-readable attribution table."""
        total = max(1, self.total_cycles)

        def pct(part: int) -> str:
            return f"{100.0 * part / total:5.1f}%"

        lines = [
            "simulated-cycle attribution:",
            f"  total cycles        {self.total_cycles:>12}",
            f"  interpreted         {self.interpreted_cycles:>12}  {pct(self.interpreted_cycles)}",
            f"  fast-forwarded      {self.fastforward_cycles:>12}  {pct(self.fastforward_cycles)}",
        ]
        if any(self.component_busy) or any(self.component_asleep):
            lines.append("per-component stepped cycles (event-wheel engine):")
            for core in range(len(self.component_busy)):
                busy = self.component_busy[core]
                idle = self.component_idle[core]
                asleep = self.component_asleep[core]
                lines.append(
                    f"  core {core}   busy {busy:>12}  idle-stepped {idle:>12}"
                    f"  asleep {asleep:>12}"
                )
        if self.batched_dispatch_calls:
            lines.append("batch-execute backend (per-core dispatch calls):")
            lines.append(f"  batched             {self.batched_dispatch_calls:>12}")
            lines.append(f"  uops in groups      {self.batched_uops:>12}")
            lines.append(f"  zero-byte plan cuts {self.plan_cuts:>12}")
        return "\n".join(lines)


def attribution_report(results: Iterable[RunResult]) -> str:
    """The ``--profile`` block: the profiles ``results`` carry, folded into
    one; those that carry none are counted, not read as zero cycles."""
    total = RunProfile()
    profiles = [result.profile for result in results]
    for profile in profiles:
        if profile is not None:
            total.merge(profile)
    lines = [total.report(), f"results used          {len(profiles):>12}"]
    if None in profiles:
        lines.append(f"  without a profile   {profiles.count(None):>12}")
    return "\n".join(lines)


def _merge_padded(mine: List[int], theirs: List[int]) -> List[int]:
    """Element-wise sum, padding the shorter list with zeros."""
    return [a + b for a, b in zip_longest(mine, theirs, fillvalue=0)]
