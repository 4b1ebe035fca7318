"""Measurement: SIMD utilisation, issue rates, stalls, lane timelines.

Definitions follow §2 of the paper:

* **SIMD utilisation** — ``sum_c busy_lanes(c) / (total_lanes * C)`` where a
  lane contributes one busy *pipe-slot* per compute uop dispatched on it and
  each lane has ``pipes`` (= compute issue width) execution pipes;
* **SIMD issue rate** — compute instructions dispatched per core per cycle,
  reported per *phase*;
* **lane timeline** — the step function of lanes owned per core
  (Fig. 2(b)-(e) and Fig. 14(b));
* **stall attribution** — one reason per core per cycle when the oldest
  waiting instruction cannot dispatch (renaming stalls feed Fig. 13).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.timeline import BucketSeries, Timeline
from repro.isa.registers import OIValue


class StallReason(enum.Enum):
    """Why a core's oldest waiting vector instruction did not dispatch."""

    EMPTY = "empty"  # nothing in the pool (scalar side is the bottleneck)
    DEPENDENCY = "dependency"  # waiting for source operands / memory data
    RENAME = "rename"  # no free physical register (Fig. 13)
    ISSUE_BUDGET = "issue-budget"  # lane pipes / ld-st slots exhausted
    STORE_QUEUE = "store-queue"  # STQ full
    RECONFIG = "reconfig"  # EM-SIMD barrier / pipeline drain

    # Members are singletons, so identity hashing is exact — and C-level,
    # where ``Enum.__hash__`` is a Python call on every per-cycle stall
    # booking.  No digest reads it: fingerprints sort stalls by name.
    __hash__ = object.__hash__


@dataclass
class PhaseRecord:
    """One dynamic phase execution on one core."""

    core: int
    oi: OIValue
    start_cycle: int
    end_cycle: Optional[int] = None
    compute_uops: int = 0
    ldst_uops: int = 0
    vl_at_start: int = 0

    @property
    def duration(self) -> int:
        end = self.end_cycle if self.end_cycle is not None else self.start_cycle
        return max(0, end - self.start_cycle)

    @property
    def issue_rate(self) -> float:
        """SIMD compute instructions issued per cycle during this phase."""
        return self.compute_uops / self.duration if self.duration else 0.0


# The per-core LSU and per-cache counters a RunResult carries live here, not
# beside the LSU and cache models (which re-export them), so that a cached
# result unpickles without loading the memory hierarchy.


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


@dataclass
class CacheStats:
    """Hit/miss/writeback counters for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Metrics:
    """Aggregates everything the evaluation section reports."""

    def __init__(
        self,
        num_cores: int,
        total_lanes: int,
        pipes_per_lane: int,
        bucket_cycles: int = 1000,
    ) -> None:
        self.num_cores = num_cores
        self.total_lanes = total_lanes
        self.pipes_per_lane = pipes_per_lane
        self.busy_pipe_slots = 0.0
        self.compute_uops = [0] * num_cores
        self.ldst_uops = [0] * num_cores
        self.flops = [0] * num_cores
        self.busy_lanes_series = [BucketSeries(bucket_cycles) for _ in range(num_cores)]
        self.lane_timeline = [Timeline() for _ in range(num_cores)]
        self.stalls: List[Dict[StallReason, int]] = [
            {reason: 0 for reason in StallReason} for _ in range(num_cores)
        ]
        self.phases: List[PhaseRecord] = []
        self._open_phase: List[Optional[PhaseRecord]] = [None] * num_cores
        self.core_done_cycle: List[Optional[int]] = [None] * num_cores
        self.reconfig_success = [0] * num_cores
        self.reconfig_failed = [0] * num_cores
        self.monitor_cycles = [0] * num_cores
        self.reconfig_cycles = [0] * num_cores
        self.total_cycles = 0
        #: Sleep capture for the tickless run loop: per core, the last stall
        #: reason and the last EM-SIMD overhead kind recorded, each with the
        #: cycle it was recorded in — ``_now``, which the run loop sets to
        #: the cycle about to be stepped.
        #: One slot of each suffices because a core records at most one
        #: stall and at most one overhead event per cycle (an ``--audit``
        #: invariant, through :attr:`auditor`).
        self._now = -1
        self._stall_at = [-1] * num_cores
        self._stall_reason: List[Optional[StallReason]] = [None] * num_cores
        self._overhead_at = [-1] * num_cores
        self._overhead_kind: List[Optional[str]] = [None] * num_cores
        #: Runtime invariant auditor (``REPRO_AUDIT``); when set, it is told
        #: of every stall and overhead record.
        self.auditor = None

    def __getstate__(self) -> Dict[str, object]:
        # Results are pickled into the cache; the auditor belongs to the run.
        return {**self.__dict__, "auditor": None}

    # --- co-processor events --------------------------------------------

    def on_compute_dispatch_batch(
        self, core: int, vls: List[int], total_flops: int, cycle: int
    ) -> None:
        """Book one latency group of compute uops dispatched by ``core``
        at ``cycle``: ``vls`` holds each uop's vector length in lanes.

        Bit-exact relative to one booking per uop (the oracle's
        ``on_compute_dispatch``): the uop/flop counters are integer sums,
        ``busy_pipe_slots`` accumulates integers into a float (exact below
        2**53, order-independent), and each busy-lane sample is
        ``vl / pipes_per_lane`` — a dyadic rational when ``pipes_per_lane``
        is a power of two, so the bulk sum is exact too.  For a
        non-power-of-two pipe count the division is inexact and summation
        order would show, so fall back to per-entry series adds.
        """
        count = len(vls)
        if count == 0:
            return
        total_vl = sum(vls)
        self.compute_uops[core] += count
        self.flops[core] += total_flops
        self.busy_pipe_slots += total_vl
        pipes = self.pipes_per_lane
        series = self.busy_lanes_series[core]
        if pipes & (pipes - 1) == 0:
            series.add_bulk(cycle, total_vl / pipes, count)
        else:
            for vl in vls:
                series.add(cycle, vl / pipes)
        phase = self._open_phase[core]
        if phase is not None:
            phase.compute_uops += count

    def on_ldst_dispatch_batch(self, core: int, count: int) -> None:
        """Book ``count`` ld/st uops dispatched by ``core`` in one cycle."""
        if count <= 0:
            return
        self.ldst_uops[core] += count
        phase = self._open_phase[core]
        if phase is not None:
            phase.ldst_uops += count

    def on_stall(self, core: int, reason: StallReason, cycle: int) -> None:
        self.stalls[core][reason] += 1
        self._stall_at[core] = self._now
        self._stall_reason[core] = reason
        if self.auditor is not None:
            self.auditor.on_core_event(core, "stall")

    def on_lane_change(self, core: int, lanes: int, cycle: int) -> None:
        self.lane_timeline[core].record(cycle, lanes)

    def on_reconfig(self, core: int, success: bool) -> None:
        if success:
            self.reconfig_success[core] += 1
        else:
            self.reconfig_failed[core] += 1

    def on_phase_marker(self, core: int, oi: OIValue, cycle: int, vl: int) -> None:
        """A ``MSR <OI>`` executed: phase begins (oi != 0) or ends (oi == 0)."""
        open_phase = self._open_phase[core]
        if open_phase is not None:
            open_phase.end_cycle = cycle
            self._open_phase[core] = None
        if not oi.is_phase_end:
            record = PhaseRecord(core=core, oi=oi, start_cycle=cycle, vl_at_start=vl)
            self.phases.append(record)
            self._open_phase[core] = record

    def on_overhead_cycle(self, core: int, kind: str) -> None:
        """A scalar cycle spent purely in EM-SIMD instrumentation."""
        if kind == "monitor":
            self.monitor_cycles[core] += 1
        else:
            self.reconfig_cycles[core] += 1
        self._overhead_at[core] = self._now
        self._overhead_kind[core] = kind
        if self.auditor is not None:
            self.auditor.on_core_event(core, "overhead")

    # --- sleep capture and settle (tickless run loop) ----------------------

    def core_idle_events(
        self, core: int
    ) -> Tuple[Optional[StallReason], Optional[str]]:
        """``(stall reason, overhead kind)`` recorded for ``core`` in the
        current cycle, ``None`` where it recorded none.

        Captured by the tickless scheduler at the cycle a component goes to
        sleep: during a zero-progress cycle the only metric mutations are
        the stall attribution and the EM-SIMD overhead cycle, both pure
        per-cycle counter increments, and a frozen component repeats
        exactly these every slept cycle.
        """
        now = self._now
        return (
            self._stall_reason[core] if self._stall_at[core] == now else None,
            self._overhead_kind[core] if self._overhead_at[core] == now else None,
        )

    def replay_core_idle_cycles(
        self,
        core: int,
        events: Tuple[Optional[StallReason], Optional[str]],
        times: int,
    ) -> None:
        """Settle ``core``'s slept span: repeat its captured
        :meth:`core_idle_events` ``times`` times, as two bulk adds."""
        stall, overhead = events
        if stall is not None:
            self.stalls[core][stall] += times
        if overhead == "monitor":
            self.monitor_cycles[core] += times
        elif overhead is not None:
            self.reconfig_cycles[core] += times

    def on_core_done(self, core: int, cycle: int) -> None:
        if self.core_done_cycle[core] is None:
            self.core_done_cycle[core] = cycle
            self.lane_timeline[core].record(cycle, 0)

    def close(self, cycle: int) -> None:
        """Finalise at end of simulation."""
        self.total_cycles = cycle
        for core in range(self.num_cores):
            phase = self._open_phase[core]
            if phase is not None:
                phase.end_cycle = cycle
                self._open_phase[core] = None
            if self.core_done_cycle[core] is None:
                self.core_done_cycle[core] = cycle

    # --- derived results ---------------------------------------------------

    def simd_utilization(self, end_cycle: Optional[int] = None) -> float:
        """Overall SIMD utilisation per the paper's §2 formula."""
        cycles = end_cycle if end_cycle is not None else self.total_cycles
        if cycles <= 0:
            return 0.0
        capacity = self.total_lanes * self.pipes_per_lane * cycles
        return min(1.0, self.busy_pipe_slots / capacity)

    def core_cycles(self, core: int) -> int:
        """Cycles from start until core ``core`` finished its workload."""
        done = self.core_done_cycle[core]
        return done if done is not None else self.total_cycles

    def phases_of(self, core: int) -> List[PhaseRecord]:
        return [p for p in self.phases if p.core == core]

    def stall_fraction(self, core: int, reason: StallReason) -> float:
        """Fraction of the core's active cycles stalled for ``reason``."""
        cycles = self.core_cycles(core)
        if cycles <= 0:
            return 0.0
        return min(1.0, self.stalls[core][reason] / cycles)

    def overhead_fraction(self, core: int) -> Dict[str, float]:
        """Fig. 15: instrumentation overhead relative to core runtime."""
        cycles = max(1, self.core_cycles(core))
        return {
            "monitor": self.monitor_cycles[core] / cycles,
            "reconfig": self.reconfig_cycles[core] / cycles,
        }
