"""Ablation variants of Occamy's design choices.

Each variant disables one ingredient of the full design, so the "Beyond the
paper" rows of :mod:`repro.analysis.fidelity` can show what that ingredient
buys; :func:`repro.core.policies.policy` resolves them by key, like any
other policy a task names:

* ``equal-split`` — replace the roofline-guided greedy partitioner with an
  equal division among running phases (no phase-behaviour awareness);
* ``flat-memory`` — disable the *hierarchical* roofline: every phase is
  bounded by DRAM bandwidth regardless of cache residency, so
  compute-intensive resident phases are under-allocated;
* ``no-issue-ceiling`` — drop the SIMD-issue-bandwidth ceiling (Eq. 2),
  reverting to a classic compute/memory roofline (the paper's Case 4
  shows what this costs);
* ``eager-only`` — compiled without the lazy partition monitor: a phase
  keeps its prologue vector length until it ends, so lanes freed by a
  co-runner mid-phase are never picked up (the eager-lazy ablation; this
  one is a *compiler* knob, ``CompileOptions(elastic=False)``, so
  ``benchmarks/test_eager_only_ablation.py`` measures it).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.common.config import MachineConfig
from repro.coproc.resource_table import ResourceTable
from repro.coproc.sharing import SharingMode
from repro.core.lane_manager import ElasticLaneManager
from repro.core.policies import Policy
from repro.core.roofline import RooflineModel


class EqualSplitLaneManager:
    """Divide the lanes equally among the currently running phases."""

    def __init__(self, total_lanes: int) -> None:
        self.total_lanes = total_lanes
        self.plan_history: list = []

    def on_phase_change(self, table: ResourceTable, cycle: int) -> Dict[int, int]:
        running = sorted(table.running_phases())
        decisions = {core: 0 for core in range(table.num_cores)}
        if running:
            share = self.total_lanes // len(running)
            remainder = self.total_lanes - share * len(running)
            for index, core in enumerate(running):
                decisions[core] = share + (1 if index < remainder else 0)
        self.plan_history.append((cycle, dict(decisions)))
        return decisions


def _flat_memory_roofline(config: MachineConfig) -> RooflineModel:
    """All memory levels collapsed to the DRAM ceiling."""
    dram = float(config.memory.dram_bytes_per_cycle)
    return replace(
        RooflineModel.from_config(config),
        mem_bandwidths=tuple(
            sorted({"vec_cache": dram, "l2": dram, "dram": dram}.items())
        ),
    )


def _no_issue_roofline(config: MachineConfig) -> RooflineModel:
    """The SIMD-issue ceiling pushed beyond every other bound."""
    return replace(
        RooflineModel.from_config(config), issue_bytes_per_lane=1e9
    )


def _variant_policy(key: str, label: str, factory) -> Policy:
    return Policy(key=key, label=label, mode=SharingMode.SPATIAL, _factory=factory)


EQUAL_SPLIT = _variant_policy(
    "equal-split",
    "Elastic (equal split)",
    lambda config, ois: EqualSplitLaneManager(config.vector.total_lanes),
)

FLAT_MEMORY = _variant_policy(
    "flat-memory",
    "Elastic (flat-memory roofline)",
    lambda config, ois: ElasticLaneManager(
        _flat_memory_roofline(config), config.vector.total_lanes
    ),
)

NO_ISSUE_CEILING = _variant_policy(
    "no-issue-ceiling",
    "Elastic (no issue ceiling)",
    lambda config, ois: ElasticLaneManager(
        _no_issue_roofline(config), config.vector.total_lanes
    ),
)

#: What :func:`repro.core.policies.policy` resolves beside the five.
ABLATION_POLICIES = (EQUAL_SPLIT, FLAT_MEMORY, NO_ISSUE_CEILING)
