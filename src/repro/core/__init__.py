"""The paper's primary contribution: elastic spatial sharing.

This package holds the vector-length-aware roofline model (§5.1), the
greedy lane-partition algorithm (§5.2), the lane managers, the four sharing
policies of Fig. 1 and the multi-core machine that ties scalar cores to the
shared co-processor.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.coproc.metrics import Metrics, PhaseRecord, StallReason
    from repro.core.lane_manager import (
        ElasticLaneManager,
        StaticLaneManager,
        TemporalLaneManager,
    )
    from repro.core.machine import Machine, run_policy
    from repro.core.partition import greedy_partition, static_partition
    from repro.core.policies import (
        ALL_POLICIES,
        CTS,
        EXTENDED_POLICIES,
        FTS,
        OCCAMY,
        PRIVATE,
        VLS,
        Policy,
        policy,
    )
    from repro.core.result import Job, RunResult
    from repro.core.roofline import RooflineModel
    from repro.core.scalar_core import ScalarCore

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.coproc.metrics": ("Metrics", "PhaseRecord", "StallReason"),
        "repro.core.lane_manager": (
            "ElasticLaneManager", "StaticLaneManager", "TemporalLaneManager"
        ),
        "repro.core.machine": ("Machine", "run_policy"),
        "repro.core.partition": ("greedy_partition", "static_partition"),
        "repro.core.policies": (
            "ALL_POLICIES", "CTS", "EXTENDED_POLICIES", "FTS", "OCCAMY", "PRIVATE",
            "Policy", "VLS", "policy"
        ),
        "repro.core.result": ("Job", "RunResult"),
        "repro.core.roofline": ("RooflineModel",),
        "repro.core.scalar_core": ("ScalarCore",),
    },
)
