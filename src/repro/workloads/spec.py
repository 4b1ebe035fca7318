"""SPEC CPU2017 workloads WL1..WL22 (paper Table 3, left columns).

Each phase is synthesized to match the operational intensity the paper
reports for that loop (see :mod:`repro.workloads.synth`).  Two table
entries are internally inconsistent in the paper (``rho_eos2`` appears as
0.25 in WL19 but 0.08 in WL22; ``sff5`` as 0.21 in WL20 but 0.16 in WL21);
we keep both values as distinct phase variants, suffixed ``_b``.

``rho_eos2`` carries data reuse: the paper's Case 4 (Table 5) gives it
``oi_issue = 0.17`` and ``oi_mem = 0.25``, which we reproduce with stencil
loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.compiler.ir import Kernel, Loop
from repro.workloads.synth import synth_phase


@dataclass(frozen=True)
class PhaseDef:
    """One Table 3 phase: name and operational intensity."""

    oi_mem: float
    oi_issue: Optional[float] = None  # None => no data reuse (== oi_mem)
    streaming: Optional[bool] = None  # None => decide by intensity


#: All SPEC phases appearing in Table 3 with their reported oi_mem.
SPEC_PHASES: Dict[str, PhaseDef] = {
    "select_atoms1": PhaseDef(0.25),
    "select_atoms2": PhaseDef(0.25),
    "select_atoms3": PhaseDef(0.25),
    "select_atoms4": PhaseDef(0.083),
    "select_atoms5": PhaseDef(0.75),
    "step3d_uv1": PhaseDef(0.11),
    "step3d_uv2": PhaseDef(0.09),
    "step3d_uv3": PhaseDef(0.13),
    "step3d_uv4": PhaseDef(0.13),
    "rhs3d1": PhaseDef(0.13),
    "rhs3d5": PhaseDef(0.32),
    "rhs3d7": PhaseDef(0.17),
    "rho_eos1": PhaseDef(0.09),
    # Case 4 / Table 5: data reuse makes issue and memory OI diverge.
    "rho_eos2": PhaseDef(0.25, oi_issue=1.0 / 6.0),
    "rho_eos2_b": PhaseDef(0.08),
    "rho_eos4": PhaseDef(0.16),
    "rho_eos5": PhaseDef(0.08),
    "rho_eos6": PhaseDef(0.06),
    "step2d1": PhaseDef(0.22),
    "step2d6": PhaseDef(0.18),
    "set_vbc1": PhaseDef(0.56),
    "set_vbc2": PhaseDef(0.56),
    "sff2": PhaseDef(0.13),
    "sff5": PhaseDef(0.21),
    "sff5_b": PhaseDef(0.16),
    "wsm51": PhaseDef(1.0, oi_issue=0.6),
    "wsm52": PhaseDef(1.0, oi_issue=0.6),
    "wsm53": PhaseDef(0.56),
}

#: Table 3's workload -> phase composition.
SPEC_WORKLOADS: Dict[int, Tuple[str, ...]] = {
    1: ("select_atoms2", "step3d_uv2"),
    2: ("select_atoms1", "step3d_uv4"),
    3: ("rhs3d1", "select_atoms3"),
    4: ("select_atoms4", "select_atoms5"),
    5: ("step3d_uv1", "rhs3d7"),
    6: ("rho_eos1", "rho_eos4"),
    7: ("rho_eos5", "select_atoms3"),
    8: ("rho_eos2", "rho_eos6"),
    9: ("wsm53", "select_atoms5"),
    10: ("rhs3d1", "rho_eos4"),
    11: ("step2d1", "step2d6"),
    12: ("step3d_uv3", "step3d_uv1"),
    13: ("set_vbc2",),
    14: ("set_vbc1",),
    15: ("rhs3d5",),
    16: ("wsm51",),
    17: ("wsm52",),
    18: ("wsm53",),
    19: ("rho_eos2",),
    20: ("sff2", "sff5"),
    21: ("sff5_b", "rho_eos6"),
    22: ("rho_eos2_b", "step3d_uv1"),
}


def spec_phase(name: str, scale: float = 1.0) -> Loop:
    """Build one Table 3 SPEC phase as a calibrated loop."""
    definition = SPEC_PHASES[name]
    return synth_phase(
        name,
        definition.oi_mem,
        oi_issue=definition.oi_issue,
        streaming=definition.streaming,
        scale=scale,
    )


def spec_workload(workload_id: int, scale: float = 1.0) -> Kernel:
    """Build SPEC workload ``WL<workload_id>`` as a multi-phase kernel."""
    if workload_id not in SPEC_WORKLOADS:
        raise ConfigurationError(
            f"unknown SPEC workload {workload_id!r} "
            f"(have: {min(SPEC_WORKLOADS)}-{max(SPEC_WORKLOADS)})"
        )
    phase_names = SPEC_WORKLOADS[workload_id]
    loops = tuple(spec_phase(name, scale=scale) for name in phase_names)
    array_length = max(loop.trip_count for loop in loops) + 2
    return Kernel(
        name=f"spec.WL{workload_id}",
        array_length=array_length,
        loops=loops,
    )
