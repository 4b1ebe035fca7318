"""Model validation: do the analytical models track the simulator?

Two predictors are cross-validated against the simulator; every measured
run is a :class:`~repro.analysis.parallel.SimTask` through
:func:`repro.analysis.experiments.run_grid`, so both sweeps are cached,
fan out under ``jobs`` / ``$REPRO_JOBS``, and import no engine themselves:

* the **roofline** (Eq. 4) the lane manager plans with — its *ordering*
  must track the machine (more predicted attainable performance means
  more achieved throughput) and its saturation knee must match where
  measured speedup flattens; ``validate_phase`` quantifies both.
  Achieved performance is measured in the roofline's own units (the
  paper's per-32-bit-lane flop accounting): compute-uops x lanes per
  cycle.

* the **ECM cycle predictor** (:mod:`repro.analysis.ecm`) — its
  *absolute* cycle predictions must land near the machine's measured
  totals; ``validate_ecm`` sweeps the Table 3 workloads under the
  sharing policies and reports per-point relative errors plus their
  geometric mean (gated by a row of :mod:`repro.analysis.fidelity`, and
  tabulated by ``repro perf-report``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.ecm import EcmModel
from repro.analysis.experiments import run_grid, solo
from repro.analysis.parallel import Jobs
from repro.analysis.reporting import geomean
from repro.common.config import MachineConfig, experiment_config
from repro.compiler.ir import Kernel
from repro.compiler.phase_analysis import analyze_kernel
from repro.core.roofline import RooflineModel


@dataclass(frozen=True)
class ValidationPoint:
    """Model-vs-machine at one lane count."""

    lanes: int
    predicted: float  # Eq. 4 attainable (flops/cycle, paper units)
    achieved: float  # measured busy pipe slots per phase cycle
    phase_cycles: int


@dataclass(frozen=True)
class PhaseValidation:
    """A full lane sweep for one phase."""

    kernel_name: str
    phase_index: int
    oi_issue: float
    oi_mem: float
    level: str
    points: List[ValidationPoint]

    @property
    def predicted_knee(self) -> int:
        """First lane count after which the prediction stops growing."""
        best = self.points[-1].predicted
        for point in self.points:
            if point.predicted >= best * 0.999:
                return point.lanes
        return self.points[-1].lanes  # pragma: no cover

    @property
    def measured_knee(self) -> int:
        """First lane count achieving >= 90% of the best throughput."""
        best = max(point.achieved for point in self.points)
        for point in self.points:
            if point.achieved >= 0.9 * best:
                return point.lanes
        return self.points[-1].lanes  # pragma: no cover

    @property
    def ordering_agreement(self) -> float:
        """Fraction of lane-count pairs the model orders like the machine.

        1.0 = the model's ranking matches the machine exactly; ties in
        either ranking count as agreement when the other side is close.
        """
        agree = 0
        total = 0
        for i, a in enumerate(self.points):
            for b in self.points[i + 1 :]:
                total += 1
                predicted = a.predicted - b.predicted
                achieved = a.achieved - b.achieved
                if predicted == 0 or achieved == 0:
                    agree += 1
                elif (predicted > 0) == (achieved > 0):
                    agree += 1
        return agree / total if total else 1.0


def validate_phase(
    kernel: Kernel,
    phase_index: int = 0,
    lane_choices: Sequence[int] = (2, 4, 8, 16, 24, 32),
    config: Optional[MachineConfig] = None,
    jobs: Jobs = None,
) -> PhaseValidation:
    """Sweep ``kernel``'s phase over fixed lane counts and compare: one
    solo task per lane count (what :func:`run_with_fixed_lanes` runs)."""
    config = config or experiment_config()
    info = analyze_kernel(kernel)[phase_index]
    level = info.residency_level(config.memory)
    oi = info.oi_for_level(level)
    roofline = RooflineModel.from_config(config)
    fixed = [f"fixed{lanes}" for lanes in lane_choices]
    (runs,) = run_grid([solo(kernel, config)], fixed, 1.0, config, jobs)

    points = []
    for lanes, key in zip(lane_choices, fixed):
        phase = runs[key].metrics.phases_of(0)[phase_index]
        cycles = max(1, phase.duration)
        achieved = phase.compute_uops * lanes / cycles
        points.append(
            ValidationPoint(
                lanes=lanes,
                predicted=roofline.attainable(lanes, oi),
                achieved=achieved,
                phase_cycles=cycles,
            )
        )
    return PhaseValidation(
        kernel_name=kernel.name,
        phase_index=phase_index,
        oi_issue=oi.issue,
        oi_mem=oi.mem,
        level=level,
        points=points,
    )


# --- ECM cycle-prediction cross-validation -----------------------------------

#: The sharing policies the ECM error gate covers (ISSUE 8 acceptance).
ECM_VALIDATION_POLICIES: Tuple[str, ...] = ("occamy", "fts", "cts")


@dataclass(frozen=True)
class EcmValidationPoint:
    """ECM-vs-machine for one (workload, policy) combination."""

    workload: str  # e.g. "WL17"
    policy_key: str
    predicted_cycles: float  # overlapping-convention prediction
    predicted_nonoverlap: float  # non-overlapping-convention prediction
    measured_cycles: int
    predicted_ipc: float
    measured_ipc: float

    @property
    def rel_error(self) -> float:
        """|predicted - measured| / measured (overlapping convention)."""
        if self.measured_cycles <= 0:
            return 0.0
        return abs(self.predicted_cycles - self.measured_cycles) / self.measured_cycles

    @property
    def brackets(self) -> bool:
        """Did the two ECM conventions bracket the measurement from at
        least one side correctly (overlap <= measured or measured <=
        non-overlap)?  Both failing means the decomposition itself — not
        just the overlap assumption — missed the machine."""
        return (
            self.predicted_cycles <= self.measured_cycles
            or self.measured_cycles <= self.predicted_nonoverlap
        )


@dataclass(frozen=True)
class EcmValidation:
    """A full ECM cross-validation sweep."""

    points: List[EcmValidationPoint]
    scale: float

    @property
    def geomean_error(self) -> float:
        """Geometric-mean relative cycle error across all points.

        Exact predictions (error 0) are floored at 0.1% so one perfect
        point cannot drag the geometric mean to zero.
        """
        return geomean([max(point.rel_error, 1e-3) for point in self.points])

    @property
    def max_error(self) -> float:
        """The worst point's error; a sweep with no points has none, and
        raises rather than pass the gate on nothing."""
        return max(point.rel_error for point in self.points)

    def errors_by_policy(self) -> Dict[str, float]:
        """Per-policy geomean relative error."""
        by_policy: Dict[str, List[float]] = {}
        for point in self.points:
            by_policy.setdefault(point.policy_key, []).append(
                max(point.rel_error, 1e-3)
            )
        return {key: geomean(errors) for key, errors in sorted(by_policy.items())}

    def table_rows(self) -> List[List[object]]:
        """Rows for the perf report's per-workload error table."""
        return [
            [
                point.workload,
                point.policy_key,
                f"{point.predicted_cycles:.0f}",
                f"{point.predicted_nonoverlap:.0f}",
                point.measured_cycles,
                f"{100 * point.rel_error:.1f}%",
                f"{point.predicted_ipc:.2f}",
                f"{point.measured_ipc:.2f}",
            ]
            for point in self.points
        ]


def validate_ecm(
    workload_ids: Optional[Sequence[int]] = None,
    policies: Sequence[str] = ECM_VALIDATION_POLICIES,
    scale: float = 0.1,
    config: Optional[MachineConfig] = None,
    jobs: Jobs = None,
) -> EcmValidation:
    """Run Table 3 workloads solo under each policy and diff vs the ECM.

    Each workload occupies core 0 alone (the other cores idle), matching
    the lane-allocation semantics :meth:`EcmModel.lanes_for` models; the
    measured side is one ``group=(id, None, ...)`` task per workload and
    policy, compiled for ``config``'s memory — the residency levels the
    ECM terms are.  Measured IPC counts vector uops (compute + ld/st) per
    total cycle, the same accounting the predictor uses.
    """
    from repro.workloads.spec import SPEC_WORKLOADS, spec_workload

    config = config or experiment_config()
    model = EcmModel(config)
    ids = sorted(workload_ids) if workload_ids is not None else sorted(SPEC_WORKLOADS)
    idle = (None,) * (config.num_cores - 1)
    solo = [{"kind": "group", "group": (workload_id,) + idle} for workload_id in ids]
    grid = run_grid(solo, policies, scale, config, jobs)
    points = []
    for workload_id, results in zip(ids, grid):
        kernel = spec_workload(workload_id, scale=scale)
        for policy_key, result in results.items():
            prediction = model.predict_kernel(kernel, policy_key)
            measured_uops = result.metrics.compute_uops[0] + result.metrics.ldst_uops[0]
            measured_ipc = (
                measured_uops / result.total_cycles if result.total_cycles else 0.0
            )
            points.append(
                EcmValidationPoint(
                    workload=f"WL{workload_id}",
                    policy_key=policy_key,
                    predicted_cycles=prediction.cycles,
                    predicted_nonoverlap=prediction.cycles_nonoverlap,
                    measured_cycles=result.total_cycles,
                    predicted_ipc=prediction.ipc,
                    measured_ipc=measured_ipc,
                )
            )
    return EcmValidation(points=points, scale=scale)
