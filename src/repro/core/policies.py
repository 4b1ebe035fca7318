"""The four evaluated SIMD sharing architectures (paper Fig. 1).

==========  ======================  ============================  =========
Policy      Lane pool               Lane manager                  Fig. 1
==========  ======================  ============================  =========
`PRIVATE`   spatial, fixed N/C      constant N/C per core         (a)
`FTS`       temporal, full width    constant N for every core     (b)
`VLS`       spatial, fixed plan     greedy plan from peak phases  (c)
`OCCAMY`    spatial, elastic        roofline greedy, re-planned   (d)
==========  ======================  ============================  =========

All four run the *same* compiled elastic programs; the differences live
entirely in the sharing mode and the decisions the lane manager hands back,
mirroring the paper's "same amount of SIMD resources for fair comparison".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.common.config import MachineConfig
from repro.coproc.sharing import SharingMode
from repro.core.lane_manager import (
    ElasticLaneManager,
    StaticLaneManager,
    TemporalLaneManager,
)
from repro.core.partition import static_partition
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue

#: Maps core id -> the OIs of the phases its workload will execute
#: (available statically from compilation; used by VLS to pick its plan).
PhaseOIs = Mapping[int, List[OIValue]]

ManagerFactory = Callable[[MachineConfig, PhaseOIs], object]


@dataclass(frozen=True)
class Policy:
    """One SIMD sharing architecture."""

    key: str
    label: str
    mode: SharingMode
    _factory: ManagerFactory

    def build_lane_manager(self, config: MachineConfig, phase_ois: PhaseOIs) -> object:
        """Construct this policy's lane manager for ``config``."""
        return self._factory(config, phase_ois)


def _private_manager(config: MachineConfig, phase_ois: PhaseOIs) -> StaticLaneManager:
    lanes = config.lanes_per_core_private
    return StaticLaneManager({core: lanes for core in range(config.num_cores)})


def _fts_manager(config: MachineConfig, phase_ois: PhaseOIs) -> TemporalLaneManager:
    return TemporalLaneManager(config.vector.total_lanes)


def _vls_manager(config: MachineConfig, phase_ois: PhaseOIs) -> StaticLaneManager:
    roofline = RooflineModel.from_config(config)
    plan = static_partition(phase_ois, config.vector.total_lanes, roofline)
    # Cores with no vector phases keep the even split as a safe default.
    fallback = config.lanes_per_core_private
    full = {core: plan.get(core, fallback) for core in range(config.num_cores)}
    return StaticLaneManager(full)


def _occamy_manager(config: MachineConfig, phase_ois: PhaseOIs) -> ElasticLaneManager:
    roofline = RooflineModel.from_config(config)
    return ElasticLaneManager(roofline, config.vector.total_lanes)


PRIVATE = Policy("private", "Private", SharingMode.SPATIAL, _private_manager)
FTS = Policy("fts", "FTS", SharingMode.TEMPORAL, _fts_manager)
VLS = Policy("vls", "VLS", SharingMode.SPATIAL, _vls_manager)
OCCAMY = Policy("occamy", "Occamy", SharingMode.SPATIAL, _occamy_manager)

#: CTS — the *coarse-grained* temporal-sharing baseline of Beldianu &
#: Ziavras (paper §8/[3,4]): one core owns the whole co-processor per
#: quantum.  Not part of the paper's headline four, but the comparison the
#: related work is built on (they found fine-grained FTS superior).
CTS = Policy("cts", "CTS", SharingMode.COARSE_TEMPORAL, _fts_manager)

#: Evaluation order used throughout the paper's figures.
ALL_POLICIES: Tuple[Policy, ...] = (PRIVATE, FTS, VLS, OCCAMY)

#: The headline four plus the related-work CTS baseline.
EXTENDED_POLICIES: Tuple[Policy, ...] = ALL_POLICIES + (CTS,)

POLICIES_BY_KEY: Dict[str, Policy] = {p.key: p for p in EXTENDED_POLICIES}


def policy(key: str) -> Policy:
    """Look up a policy by key (``private``/``fts``/``vls``/``occamy``/``cts``),
    ``fixed<N>``: every core pinned at ``N`` lanes (Fig. 14(a)'s sweep), or
    one of :mod:`repro.core.ablations`' variants (``equal-split``,
    ``flat-memory``, ``no-issue-ceiling``)."""
    if key.startswith("fixed") and key[5:].isdigit():
        lanes = int(key[5:])

        def pinned(config: MachineConfig, phase_ois: PhaseOIs) -> StaticLaneManager:
            return StaticLaneManager({core: lanes for core in range(config.num_cores)})

        return Policy(key, f"Fixed({lanes})", SharingMode.SPATIAL, pinned)
    if key in POLICIES_BY_KEY:
        return POLICIES_BY_KEY[key]
    # Imported on use: the variants are built from this module's Policy.
    from repro.core.ablations import ABLATION_POLICIES

    variants = {variant.key: variant for variant in ABLATION_POLICIES}
    if key in variants:
        return variants[key]
    raise KeyError(
        f"unknown policy {key!r}; choose from "
        f"{sorted(POLICIES_BY_KEY) + sorted(variants)} or fixed<N>"
    )
