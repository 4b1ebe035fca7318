"""Analytical chip-area model (paper §7.3, Fig. 12).

The paper synthesised the key components in TSMC 7 nm; we cannot, so the
model is calibrated to Fig. 12's breakdown for the 2-core / 32-lane
configuration (total 1.263 mm²; SIMD execution units 46%, LSU 23%,
register file 15%, Manager < 1% — Occamy only) and to the two scaling
statements: +3% control-logic area from 2 to 4 cores (§4.2.1) and +33.5%
total area for 4-core FTS, which must keep every core's full-width context
resident (§7.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.config import MachineConfig

#: Calibrated component areas (mm²) for the 2-core, 32-lane, 128-vreg
#: baseline; per-lane / per-core / per-entry scaling applied around them.
BASELINE = {
    "simd_exe_units": 0.581,  # 46% — scales with lane count
    "lsu": 0.290,  # 23% — scales with core count
    "register_file": 0.189,  # 15% — scales with lanes x vregs/block
    "vec_cache": 0.080,  # scales with capacity
    "inst_pool": 0.034,  # control logic: +3% per core doubling
    "decode": 0.022,
    "rename": 0.022,
    "dispatch": 0.022,
    "rob": 0.023,
}

#: The Manager (ResourceTbl + LaneMgr + fifos): < 1% of total, Occamy only.
MANAGER_AREA = 0.002

#: Extra area per core beyond two for FTS's per-core full-width contexts
#: (calibrated so 4-core FTS costs +33.5% over the other architectures).
FTS_CONTEXT_AREA_PER_EXTRA_CORE = 0.411

_BASE_LANES = 32
_BASE_CORES = 2
_BASE_VREGS = 128
_BASE_VEC_CACHE = 128 * 1024

#: Components treated as control logic for the §4.2.1 scaling rule.
CONTROL_LOGIC = ("inst_pool", "decode", "rename", "dispatch", "rob")


@dataclass(frozen=True)
class AreaBreakdown:
    """Per-component areas in mm²."""

    components: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.components.values())

    def fraction(self, component: str) -> float:
        return self.components.get(component, 0.0) / self.total

    def rows(self) -> Dict[str, float]:
        return dict(sorted(self.components.items(), key=lambda kv: -kv[1]))


def area_model(config: MachineConfig, policy_key: str) -> AreaBreakdown:
    """Chip area of the co-processor under ``policy_key``.

    ``policy_key`` is one of ``private``/``fts``/``vls``/``occamy``.
    """
    lanes = config.vector.total_lanes / _BASE_LANES
    cores = config.num_cores / _BASE_CORES
    vregs = config.vector.vregs_per_block / _BASE_VREGS
    vc = config.memory.vec_cache.size_bytes / _BASE_VEC_CACHE
    control_scale = cores * (1.0 + 0.03 * (cores - 1.0))

    components = {
        "simd_exe_units": BASELINE["simd_exe_units"] * lanes,
        "lsu": BASELINE["lsu"] * cores,
        "register_file": BASELINE["register_file"] * lanes * vregs,
        "vec_cache": BASELINE["vec_cache"] * vc,
    }
    for name in CONTROL_LOGIC:
        components[name] = BASELINE[name] * control_scale

    if policy_key == "fts":
        extra_cores = max(0, config.num_cores - _BASE_CORES)
        if extra_cores:
            components["register_file"] += (
                FTS_CONTEXT_AREA_PER_EXTRA_CORE * extra_cores
            )
    if policy_key == "occamy":
        components["manager"] = MANAGER_AREA
    return AreaBreakdown(components=components)
