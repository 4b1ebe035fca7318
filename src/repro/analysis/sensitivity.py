"""Sensitivity of the elastic-sharing benefit to machine parameters.

Sweeps one machine parameter at a time and reports Occamy's compute-core
speedup over Private on the motivating pair — quantifying where elastic
sharing pays off: more total lanes (more slack to reassign), scarcer DRAM
bandwidth (memory phases saturate earlier, freeing more lanes), deeper
windows.  Each point is the ``motivate`` task under the transformed
configuration — compiled for that configuration's memory, cached, and
fanned out under ``jobs`` like any other sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.analysis.experiments import run_grid
from repro.analysis.parallel import Jobs
from repro.common.config import MachineConfig, experiment_config


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep point's outcome."""

    parameter: str
    value: object
    private_cycles: int
    occamy_cycles: int
    compute_speedup: float
    memory_speedup: float
    utilization_gain: float


def _with_total_lanes(config: MachineConfig, lanes: int) -> MachineConfig:
    vector = dataclasses.replace(config.vector, total_lanes=lanes)
    return dataclasses.replace(config, vector=vector)


def _with_dram_bw(config: MachineConfig, bytes_per_cycle: int) -> MachineConfig:
    memory = dataclasses.replace(config.memory, dram_bytes_per_cycle=bytes_per_cycle)
    return dataclasses.replace(config, memory=memory)


def _with_pool(config: MachineConfig, entries: int) -> MachineConfig:
    core = dataclasses.replace(config.core, instruction_pool_entries=entries)
    return dataclasses.replace(config, core=core)


#: parameter name -> (values to sweep, config transformer).
SWEEPS: Dict[str, tuple] = {
    "total_lanes": ((16, 32, 64), _with_total_lanes),
    "dram_bytes_per_cycle": ((16, 32, 64), _with_dram_bw),
    "instruction_pool_entries": ((48, 96, 192), _with_pool),
}


def sweep(
    parameter: str,
    values: Sequence[object] = None,
    scale: float = 0.35,
    base_config: MachineConfig = None,
    jobs: Jobs = None,
) -> List[SensitivityPoint]:
    """Sweep ``parameter`` over ``values`` on the motivating pair."""
    defaults, transform = SWEEPS[parameter]
    values = values if values is not None else defaults
    base_config = base_config or experiment_config()
    workloads = [
        {"kind": "motivate", "config": transform(base_config, value)}
        for value in values
    ]
    grid = run_grid(workloads, ("private", "occamy"), scale, base_config, jobs)
    points = []
    for value, results in zip(values, grid):
        private, occamy = results["private"], results["occamy"]
        points.append(
            SensitivityPoint(
                parameter=parameter,
                value=value,
                private_cycles=private.total_cycles,
                occamy_cycles=occamy.total_cycles,
                compute_speedup=occamy.speedup_over(private, 1),
                memory_speedup=occamy.speedup_over(private, 0),
                utilization_gain=(
                    occamy.metrics.simd_utilization()
                    / max(private.metrics.simd_utilization(), 1e-9)
                ),
            )
        )
    return points
