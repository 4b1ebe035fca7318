"""Experiment drivers — one per evaluation figure/table (paper §7).

Every driver is a list of :class:`~repro.analysis.parallel.SimTask`s —
workload sets × sharing policies — handed to :func:`_run`, plus a fold of
the results into the figure's outcome type.  ``_run`` is a two-level
cache, so Fig. 10 (speedups), Fig. 11 (utilisation), Fig. 13 (renaming
stalls) and Fig. 15 (overhead) reuse the same 25-pair x 4-policy
simulations instead of re-running them:

* an in-process memo keyed by the task (pair or group, policy, scale and
  the whole machine configuration);
* behind it :func:`repro.analysis.parallel.run_tasks` — the persistent
  on-disk layer of :mod:`repro.analysis.result_cache`, shared across
  processes and invocations (disable with ``--no-cache`` /
  ``REPRO_NO_CACHE``), and the only place a simulation is run.

Passing ``jobs`` (or setting ``REPRO_JOBS``) fans cache misses out across
worker processes; results are bit-identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.parallel import Jobs, SimTask, run_tasks
from repro.common.config import MachineConfig, experiment_config
from repro.compiler.ir import Kernel
from repro.coproc.metrics import StallReason
from repro.core.policies import ALL_POLICIES, Policy
from repro.core.result import RunResult, attribution_report
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue
from repro.workloads.pairs import FOUR_CORE_GROUPS, CoRunPair, all_pairs
from repro.workloads.spec import spec_workload

#: Default workload scale for the benchmark harness (repeat multiplier).
DEFAULT_SCALE = 0.35

# The four architectures every figure compares, in plotting order.
_ALL_POLICY_KEYS: Tuple[str, ...] = tuple(policy.key for policy in ALL_POLICIES)

# Keyed by the whole task, config included: any knob change — cache
# geometry, lane count, latencies — must be a miss.
_sweep_cache: Dict[SimTask, RunResult] = {}


def clear_sweep_cache() -> None:
    """Drop memoised simulation results — both the in-process memo and the
    active persistent on-disk layer (tests use this for isolation)."""
    from repro.analysis import result_cache

    _sweep_cache.clear()
    disk = result_cache.default_cache()
    if disk is not None:
        disk.clear()


def _run(tasks: Sequence[SimTask], jobs: Jobs = None) -> List[RunResult]:
    """``run_tasks`` behind the in-process memo, results in task order.

    A task runs (or loads) once per process, however many figures and
    placements name it, and a repeat call returns the same objects.
    """
    missing = [task for task in dict.fromkeys(tasks) if task not in _sweep_cache]
    _sweep_cache.update(zip(missing, run_tasks(missing, jobs=jobs)))
    return [_sweep_cache[task] for task in tasks]


def profile_report() -> str:
    """The ``--profile`` block over every result this process's drivers
    used (the memo holds exactly those), hits and worker runs included."""
    return attribution_report(_sweep_cache.values())


def run_grid(
    workloads: Sequence[Dict[str, object]],
    policy_keys: Sequence[str],
    scale: float,
    config: MachineConfig,
    jobs: Jobs,
) -> List[Dict[str, RunResult]]:
    """Every workload set (the :class:`SimTask` fields naming one; a
    ``config`` among them overrides the grid's) under every policy, as one
    task list: a ``{policy key: result}`` per set."""
    results = iter(
        _run(
            [
                SimTask(policy_key=key, scale=scale, **{"config": config, **workload})
                for workload in workloads
                for key in policy_keys
            ],
            jobs,
        )
    )
    return [{key: next(results) for key in policy_keys} for _ in workloads]


def _group_workloads(groups: Sequence[Sequence[int]]) -> List[Dict[str, object]]:
    return [{"kind": "group", "group": tuple(group)} for group in groups]


class _PerPolicy:
    """What every outcome holding one run per policy key can report."""

    results: Dict[str, RunResult]

    def speedup(self, policy_key: str, core: int) -> float:
        """Per-core speedup over the Private baseline (Fig. 10)."""
        return self.results[policy_key].speedup_over(self.results["private"], core)

    def utilization(self, policy_key: str) -> float:
        """Whole-run SIMD utilisation (Fig. 11)."""
        return self.results[policy_key].metrics.simd_utilization()


@dataclass
class PairOutcome(_PerPolicy):
    """All four policies' results for one co-running pair."""

    pair: CoRunPair
    results: Dict[str, RunResult]

    def rename_stall_fraction(self, policy_key: str, core: int) -> float:
        """Fraction of cycles stalled waiting for free registers (Fig. 13)."""
        return self.results[policy_key].metrics.stall_fraction(
            core, StallReason.RENAME
        )

    def overhead(self, core: int) -> Dict[str, float]:
        """Occamy's EM-SIMD runtime overhead split (Fig. 15)."""
        return self.results["occamy"].metrics.overhead_fraction(core)


def _pair_outcomes(
    pairs: Sequence[CoRunPair],
    scale: float,
    config: Optional[MachineConfig],
    policies: Sequence[Policy],
    jobs: Jobs,
) -> List[PairOutcome]:
    grid = run_grid(
        [{"pair": pair} for pair in pairs],
        [policy.key for policy in policies],
        scale,
        config or experiment_config(),
        jobs,
    )
    return [PairOutcome(pair, results) for pair, results in zip(pairs, grid)]


def pair_outcome(
    pair: CoRunPair,
    scale: float = DEFAULT_SCALE,
    config: Optional[MachineConfig] = None,
    policies: Sequence[Policy] = ALL_POLICIES,
    jobs: Jobs = None,
) -> PairOutcome:
    """Run (or fetch) one pair under every policy."""
    return _pair_outcomes([pair], scale, config, policies, jobs)[0]


def sweep_pairs(
    pairs: Optional[Sequence[CoRunPair]] = None,
    scale: float = DEFAULT_SCALE,
    config: Optional[MachineConfig] = None,
    jobs: Jobs = None,
) -> List[PairOutcome]:
    """The full Fig. 10/11/13/15 sweep (memoised, optionally parallel).

    ``jobs`` (default: ``$REPRO_JOBS``, else serial) fans the underlying
    simulations across worker processes; the outcomes — and their order —
    are bit-identical either way.
    """
    pairs = list(pairs) if pairs is not None else all_pairs()
    return _pair_outcomes(pairs, scale, config, ALL_POLICIES, jobs)


# --- Fig. 2: the motivating example ----------------------------------------


@dataclass
class MotivationResult(_PerPolicy):
    """Fig. 2(b)-(f): four architectures co-running WL#0 + WL#1."""

    results: Dict[str, RunResult]

    def issue_rates(self, policy_key: str, core: int) -> List[float]:
        metrics = self.results[policy_key].metrics
        return [phase.issue_rate for phase in metrics.phases_of(core)]


def motivation_fig2(
    scale: float = 0.5,
    config: Optional[MachineConfig] = None,
    jobs: Jobs = None,
) -> MotivationResult:
    """Run the §2 motivating example on all four architectures."""
    (results,) = run_grid(
        [{"kind": "motivate"}],
        _ALL_POLICY_KEYS,
        scale,
        config or experiment_config(),
        jobs,
    )
    return MotivationResult(results=results)


# --- Fig. 14: case study with fixed lane counts ------------------------------


def solo(kernel: Kernel, config: MachineConfig, core_id: int = 0) -> Dict[str, object]:
    """The workload set that runs ``kernel`` alone on ``core_id``."""
    kernels: List[Optional[Kernel]] = [None] * config.num_cores
    kernels[core_id] = kernel
    return {"kind": "kernels", "kernels": tuple(kernels)}


def run_with_fixed_lanes(
    kernel: Kernel,
    lanes: int,
    config: Optional[MachineConfig] = None,
    core_id: int = 0,
) -> RunResult:
    """Run ``kernel`` alone with a hard-wired lane allocation.

    Used for Fig. 14(a)'s "normalised execution time vs #lanes" sweep.
    """
    config = config or experiment_config()
    key = f"fixed{lanes}"
    # A kernel's scale is baked into it: the task's only labels the run.
    return run_grid([solo(kernel, config, core_id)], [key], 1.0, config, None)[0][key]


@dataclass
class CaseStudyResult:
    """Fig. 14: WL20 + WL17 under varying lane counts and policies."""

    #: lanes -> (phase durations of WL20, duration of WL17), solo runs.
    lane_sweep: Dict[int, Tuple[List[int], int]]
    #: policy -> co-run result.
    corun: Dict[str, RunResult]

    def normalized_times(self, phase_index: int) -> Dict[int, float]:
        """Fig. 14(a): WL20 phase time vs lanes, normalised to the max."""
        times = {
            lanes: durations[phase_index]
            for lanes, (durations, _comp) in self.lane_sweep.items()
        }
        peak = max(times.values())
        return {lanes: t / peak for lanes, t in times.items()}

    def normalized_compute_times(self) -> Dict[int, float]:
        """Fig. 14(a): WL17 time vs lanes, normalised to the max."""
        times = {lanes: comp for lanes, (_d, comp) in self.lane_sweep.items()}
        peak = max(times.values())
        return {lanes: t / peak for lanes, t in times.items()}

    def lane_timeline(self, policy_key: str, core: int) -> List[Tuple[int, float]]:
        """Fig. 14(b): the lanes-allocated step function for WL17."""
        return list(self.corun[policy_key].metrics.lane_timeline[core].points)

    def issue_rates(self, policy_key: str, core: int) -> List[float]:
        metrics = self.corun[policy_key].metrics
        return [phase.issue_rate for phase in metrics.phases_of(core)]


def case_study_fig14(
    scale: float = DEFAULT_SCALE,
    config: Optional[MachineConfig] = None,
    lane_choices: Sequence[int] = (4, 8, 12, 16, 20, 24, 28),
    jobs: Jobs = None,
) -> CaseStudyResult:
    """The §7.4 Case 1 study: WL20 (sff2+sff5) + WL17 (wsm52)."""
    config = config or experiment_config()
    wl20 = spec_workload(20, scale=scale)
    wl17 = spec_workload(17, scale=scale)
    fixed = [f"fixed{lanes}" for lanes in lane_choices]
    mem_runs, comp_runs = run_grid(
        [solo(wl20, config), solo(wl17, config)], fixed, 1.0, config, jobs
    )
    lane_sweep = {
        lanes: (
            [p.duration for p in mem_runs[key].metrics.phases_of(0)],
            comp_runs[key].core_time(0),
        )
        for lanes, key in zip(lane_choices, fixed)
    }
    # In the co-run, WL17 must outlive WL20 (the paper's regime) so it
    # inherits the full lane pool after WL20's phases end; compile the
    # compute side with a larger repeat scale than the memory side.
    pair = {"kind": "kernels", "kernels": (wl20, spec_workload(17, scale=3 * scale))}
    (corun,) = run_grid([pair], _ALL_POLICY_KEYS, scale, config, jobs)
    return CaseStudyResult(lane_sweep=lane_sweep, corun=corun)


# --- Table 5: the roofline worked example ------------------------------------


def table5_rows(
    config: Optional[MachineConfig] = None,
    lane_choices: Sequence[int] = (4, 8, 12, 16, 20, 24, 28, 32),
) -> List[Dict[str, float]]:
    """Attainable performance for WL8.p1 (rho_eos2) per Eq. 4."""
    config = config or experiment_config()
    roofline = RooflineModel.from_config(config)
    oi = OIValue(issue=1.0 / 6.0, mem=0.25)
    return roofline.table_rows(oi, lane_choices, frequency_ghz=config.frequency_ghz)


TABLE5_HEADERS = ["VL", "IssueBound", "MemBound", "CompBound", "Perf"]


def table5_cells(config: MachineConfig) -> List[List[object]]:
    """Table 5 as ``repro table5`` and ``repro report`` print it: one row
    per vector length under :data:`TABLE5_HEADERS`."""
    return [
        [
            int(row["vl"]),
            f"{row['simd_issue_bound']:.1f}",
            f"{row['mem_bound']:.1f}",
            f"{row['comp_bound']:.1f}",
            f"{row['performance']:.1f}",
        ]
        for row in table5_rows(config)
    ]


# --- Fig. 16: four-core scalability --------------------------------------------


def four_core_fig16(
    scale: float = DEFAULT_SCALE,
    config: Optional[MachineConfig] = None,
    groups: Sequence[Sequence[int]] = FOUR_CORE_GROUPS,
    jobs: Jobs = None,
) -> List[Dict[str, RunResult]]:
    """Run each Fig. 16 group on the 4-core configuration, all policies."""
    return run_grid(
        _group_workloads(groups),
        _ALL_POLICY_KEYS,
        scale,
        config or experiment_config(num_cores=4),
        jobs,
    )


# --- N-core scaling sweep (ROADMAP item 1's experiment axis) -----------------

#: Policies the N-core matrix runs: the Private baseline plus one policy
#: per sharing mode (spatial/temporal/coarse-temporal).
NCORE_POLICY_KEYS: Tuple[str, ...] = ("private", "occamy", "fts", "cts")


def ncore_group(num_cores: int) -> Tuple[int, ...]:
    """The deterministic co-run group evaluated at ``num_cores``.

    Tiles the paper's Fig. 16 four-core groups — mixed memory/compute
    pairings — across however many cores the machine has, so every size
    co-runs the same workload blend and the policy comparison stays
    apples-to-apples across the sweep.
    """
    flat = [workload for group in FOUR_CORE_GROUPS for workload in group]
    return tuple(flat[core % len(flat)] for core in range(num_cores))


@dataclass
class NCoreOutcome(_PerPolicy):
    """One machine size's per-policy co-run results."""

    num_cores: int
    group: Tuple[int, ...]
    results: Dict[str, RunResult]

    def geomean_speedup(self, policy_key: str) -> float:
        """Geometric-mean per-core speedup over Private at this size."""
        product = 1.0
        for core in range(self.num_cores):
            product *= max(self.speedup(policy_key, core), 1e-12)
        return product ** (1.0 / self.num_cores)


def ncore_outcome(
    num_cores: int,
    scale: float = DEFAULT_SCALE,
    policies: Sequence[str] = NCORE_POLICY_KEYS,
    config: Optional[MachineConfig] = None,
    jobs: Jobs = None,
) -> NCoreOutcome:
    """Run (or fetch) the ``num_cores``-machine co-run under ``policies``."""
    group = ncore_group(num_cores)
    (results,) = run_grid(
        _group_workloads([group]),
        policies,
        scale,
        config or experiment_config(num_cores=num_cores),
        jobs,
    )
    return NCoreOutcome(num_cores=num_cores, group=group, results=results)


# --- The ledger's placement input ---------------------------------------------
#
# Only the frozen ledger's ``ncore16_cold`` set-up calls this; ROADMAP item
# 1's bench PR deletes it.


def alloc_threads(num_cores: int, scale: float = DEFAULT_SCALE):
    """The :func:`ncore_group` blend, one allocation-layer
    :class:`~repro.alloc.placement.ThreadSpec` per core.

    Keys are zero-padded (``spec:06``) so canonical string order matches
    workload-id order and identical pairs collapse to identical labels.
    """
    from repro.alloc.placement import ThreadSpec

    return [
        ThreadSpec(key=f"spec:{workload:02d}", kernel=spec_workload(workload, scale=scale))
        for workload in ncore_group(num_cores)
    ]
