"""Energy accounting for the SIMD co-processor.

The paper's baselines come from Beldianu & Ziavras's *performance-energy*
work on shared vector co-processors, so an energy model belongs in a full
reproduction even though the paper itself only reports area.  The model is
event-based with 7 nm-class coefficients:

* dynamic compute energy per 128-bit lane-operation;
* register-file energy per lane-operation (reads + write);
* memory energy per byte, by the level that served it;
* static (leakage) energy proportional to the Fig. 12 area model and the
  run's duration.

Coefficients live in :class:`EnergyCoefficients` — they set the *scale*;
cross-policy comparisons (the interesting part) depend only on relative
event counts and runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.area import area_model
from repro.core.result import RunResult


@dataclass(frozen=True)
class EnergyCoefficients:
    """Per-event energies (picojoules), 7 nm-class ballpark."""

    compute_per_lane_op: float = 2.0  # one 128-bit FP op in one ExeBU
    regfile_per_lane_op: float = 1.2  # operand reads + result write
    vec_cache_per_byte: float = 0.6
    l2_per_byte: float = 2.4
    dram_per_byte: float = 18.0
    #: Leakage power density (watts per mm²) applied to the area model.
    leakage_w_per_mm2: float = 0.05


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown for one run, in microjoules."""

    policy_key: str
    components_uj: Dict[str, float]
    total_cycles: int
    frequency_ghz: float

    @property
    def total_uj(self) -> float:
        return sum(self.components_uj.values())

    @property
    def runtime_us(self) -> float:
        return self.total_cycles / (self.frequency_ghz * 1000.0)

    @property
    def edp(self) -> float:
        """Energy-delay product (uJ x us)."""
        return self.total_uj * self.runtime_us

    def rows(self) -> List[List[object]]:
        ordered = sorted(self.components_uj.items(), key=lambda kv: -kv[1])
        return [[name, f"{value:.2f}"] for name, value in ordered]


def energy_report(
    result: RunResult,
    coefficients: EnergyCoefficients = EnergyCoefficients(),
) -> EnergyReport:
    """Event-based energy accounting over a finished run."""
    metrics = result.metrics
    config = result.config
    pj: Dict[str, float] = {}

    # Dynamic compute + register file: busy pipe slots = uops x lanes.
    lane_ops = metrics.busy_pipe_slots
    pj["simd_exe_units"] = lane_ops * coefficients.compute_per_lane_op
    pj["register_file"] = lane_ops * coefficients.regfile_per_lane_op

    # Memory: per-line traffic at the level that served each access.
    line = config.memory.line_bytes
    vec_bytes = l2_bytes = dram_bytes = 0
    for stats in result.lsu_stats:
        vec_bytes += stats.vec_cache_hits * line
        l2_bytes += stats.l2_hits * line
        dram_bytes += stats.dram_accesses * line
    pj["vec_cache"] = vec_bytes * coefficients.vec_cache_per_byte
    pj["l2"] = l2_bytes * coefficients.l2_per_byte
    pj["dram"] = dram_bytes * coefficients.dram_per_byte

    # Static leakage over the run: area x power density x time.
    area_mm2 = area_model(config, result.policy_key).total
    seconds = result.total_cycles / (config.frequency_ghz * 1e9)
    pj["leakage"] = area_mm2 * coefficients.leakage_w_per_mm2 * seconds * 1e12

    return EnergyReport(
        policy_key=result.policy_key,
        components_uj={name: value / 1e6 for name, value in pj.items()},
        total_cycles=result.total_cycles,
        frequency_ghz=config.frequency_ghz,
    )


def compare_energy(
    results: Dict[str, RunResult],
    coefficients: EnergyCoefficients = EnergyCoefficients(),
) -> Dict[str, EnergyReport]:
    """Energy reports for a set of policy runs of the same workloads."""
    return {key: energy_report(run, coefficients) for key, run in results.items()}
