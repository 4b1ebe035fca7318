"""Lane managers — the hardware ``LaneMgr`` of §5 plus policy stand-ins.

A lane manager is invoked by the co-processor whenever an ``MSR <OI>``
executes (a phase-changing point) and returns the new ``<decision>`` values
for every core:

* :class:`ElasticLaneManager` — the Occamy LaneMgr: roofline-guided greedy
  re-partitioning over the currently running phases;
* :class:`StaticLaneManager` — a constant plan (the Private baseline and
  the VLS static spatial-sharing policy);
* :class:`TemporalLaneManager` — every core is offered the full lane pool
  (the FTS temporal-sharing policy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.coproc.resource_table import ResourceTable
from repro.core.partition import greedy_partition
from repro.core.roofline import RooflineModel


class ElasticLaneManager:
    """The Occamy hardware lane manager (monitor + roofline + greedy)."""

    def __init__(self, roofline: RooflineModel, total_lanes: int) -> None:
        self.roofline = roofline
        self.total_lanes = total_lanes
        self.plans_generated = 0
        self.plan_history: List[Tuple[int, Dict[int, int]]] = []

    def on_phase_change(self, table: ResourceTable, cycle: int) -> Dict[int, int]:
        """Re-plan on a phase entry/exit; cores with no phase decide to 0."""
        running = table.running_phases()
        plan = greedy_partition(running, self.total_lanes, self.roofline)
        decisions = {core: plan.get(core, 0) for core in range(table.num_cores)}
        self.plans_generated += 1
        self.plan_history.append((cycle, dict(decisions)))
        return decisions


class StaticLaneManager:
    """A fixed partition: decisions never change (Private / VLS)."""

    def __init__(self, plan: Mapping[int, int]) -> None:
        self.plan = dict(plan)
        self.plans_generated = 0

    def on_phase_change(self, table: ResourceTable, cycle: int) -> Dict[int, int]:
        self.plans_generated += 1
        return {
            core: self.plan.get(core, 0) for core in range(table.num_cores)
        }


class TemporalLaneManager:
    """FTS: every core runs full-width; lanes are shared in time."""

    def __init__(self, total_lanes: int) -> None:
        self.total_lanes = total_lanes
        self.plans_generated = 0

    def on_phase_change(self, table: ResourceTable, cycle: int) -> Dict[int, int]:
        self.plans_generated += 1
        return {core: self.total_lanes for core in range(table.num_cores)}
