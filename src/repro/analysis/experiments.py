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


# --- Allocation sweep: pairing policy × sharing policy × core count ----------
#
# The allocation layer (ROADMAP item 1's remaining half) partitions the
# N-core thread blend into 2-core *complexes* — each the paper's evaluated
# machine — and simulates every complex independently under the sharing
# policy.  Placement is a pure pre-simulation decision: a complex's task
# names only its workloads, so the same pair is the same simulation (same
# memo slot, same disk entry) no matter which policy placed it together,
# which is what the alloc-smoke CI job asserts via per-pair fingerprints.

#: Sharing policies the allocation matrix runs within each complex.
ALLOC_SHARING_KEYS: Tuple[str, ...] = NCORE_POLICY_KEYS

#: Calibration micro co-runs use this short repeat scale.
ALLOC_CALIB_SCALE = 0.05


def alloc_group(num_cores: int) -> Tuple[int, ...]:
    """The workload-id blend the allocation sweep places at ``num_cores``.

    Identical to :func:`ncore_group` so the pairing comparison runs the
    same blend the N-core sharing sweep runs — only *who shares with
    whom* changes.
    """
    return ncore_group(num_cores)


def alloc_threads(
    num_cores: int,
    scale: float = DEFAULT_SCALE,
    calib_scale: float = ALLOC_CALIB_SCALE,
):
    """The blend as allocation-layer :class:`~repro.alloc.ThreadSpec`s.

    Keys are zero-padded (``spec:06``) so canonical string order matches
    workload-id order and identical pairs collapse to identical labels.
    """
    from repro.alloc import ThreadSpec

    return [
        ThreadSpec(
            key=f"spec:{workload:02d}",
            kernel=spec_workload(workload, scale=scale),
            calib_kernel=spec_workload(workload, scale=calib_scale),
        )
        for workload in alloc_group(num_cores)
    ]


@dataclass
class AllocOutcome:
    """One (core count, pairing policy, sharing policy) sweep point."""

    num_cores: int
    alloc_key: str
    sharing_key: str
    group: Tuple[int, ...]
    #: Canonical placement: complexes of thread indices into ``group``.
    placement: Tuple[Tuple[int, ...], ...]
    #: One result per complex, in placement order.
    results: Tuple[RunResult, ...]

    def complex_workloads(self, index: int) -> Tuple[int, ...]:
        """The workload ids co-running on complex ``index``."""
        return tuple(self.group[t] for t in self.placement[index])

    def pair_label(self, index: int) -> str:
        return "+".join(str(w) for w in self.complex_workloads(index))

    def pair_labels(self) -> Tuple[str, ...]:
        return tuple(self.pair_label(i) for i in range(len(self.placement)))

    def pair_cycles(self) -> List[int]:
        """Per-complex makespans, in placement order."""
        return [result.total_cycles for result in self.results]

    def thread_cycles(self) -> List[int]:
        """Every thread's own drain time, placement order then core order."""
        return [
            result.core_time(core)
            for result, members in zip(self.results, self.placement)
            for core in range(len(members))
        ]

    def geomean_cycles(self) -> float:
        """The blended metric: geometric-mean per-thread drain cycles.

        The co-scheduling literature's geomean-of-per-thread-performance,
        inverted to cycles (lower is better) — exactly what the symbiosis
        matching minimises, and what the CI gate compares across pairing
        policies.
        """
        from repro.analysis.reporting import geomean

        return geomean(
            [float(c) for c in self.thread_cycles()],
            series=f"alloc {self.alloc_key}/{self.sharing_key}",
        )

    def makespan(self) -> int:
        """Whole-machine finish time: the slowest complex."""
        return max(self.pair_cycles())


def alloc_outcome(
    num_cores: int,
    alloc_key: str,
    sharing_key: str = "occamy",
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    calibrate: bool = False,
    jobs: Jobs = None,
) -> AllocOutcome:
    """Place the ``num_cores`` blend with ``alloc_key``, then run every
    complex under ``sharing_key`` (two-level cached, like the pair sweep)."""
    from repro.alloc import ALLOC_POLICIES_BY_KEY, AllocContext
    from repro.common.config import validate_core_count
    from repro.common.errors import ConfigurationError
    from repro.core.policies import POLICIES_BY_KEY

    validate_core_count(num_cores, source="alloc_outcome num_cores")
    if alloc_key not in ALLOC_POLICIES_BY_KEY:
        raise ConfigurationError(
            f"unknown allocation policy {alloc_key!r} "
            f"(have: {', '.join(sorted(ALLOC_POLICIES_BY_KEY))})"
        )
    if sharing_key not in POLICIES_BY_KEY:
        raise ConfigurationError(
            f"unknown sharing policy {sharing_key!r} "
            f"(have: {', '.join(sorted(POLICIES_BY_KEY))})"
        )
    context = AllocContext(
        sharing_key=sharing_key, seed=seed, calibrate=calibrate, jobs=jobs
    )
    complex_config = context.complex_config()
    group = alloc_group(num_cores)
    placement = ALLOC_POLICIES_BY_KEY[alloc_key](
        alloc_threads(num_cores, scale), context
    )
    grid = run_grid(
        _group_workloads(
            [[group[thread] for thread in members] for members in placement]
        ),
        [sharing_key],
        scale,
        complex_config,
        jobs,
    )
    return AllocOutcome(
        num_cores=num_cores,
        alloc_key=alloc_key,
        sharing_key=sharing_key,
        group=group,
        placement=placement,
        results=tuple(results[sharing_key] for results in grid),
    )


@dataclass
class PairWinLoss:
    """One complex's cycles under every sharing policy (win/loss row)."""

    label: str
    workloads: Tuple[int, ...]
    cycles: Dict[str, int]

    @property
    def winner(self) -> str:
        """The sharing policy with the fewest cycles (ties: key order)."""
        return min(self.cycles, key=lambda key: (self.cycles[key], key))


def alloc_winloss(
    num_cores: int,
    alloc_key: str = "symbiosis",
    sharing_keys: Sequence[str] = ALLOC_SHARING_KEYS,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    calibrate: bool = False,
    jobs: Jobs = None,
) -> List[PairWinLoss]:
    """Per-pair sharing-policy win/loss under one placement.

    The placement is decided once (``alloc_key`` scoring for occamy);
    each complex then runs under every sharing policy, so the table asks
    "given who shares, which sharing policy wins each pair?" — the
    ROADMAP item 3 follow-on.
    """
    base = alloc_outcome(
        num_cores, alloc_key, "occamy", scale=scale, seed=seed,
        calibrate=calibrate, jobs=jobs,
    )
    complexes = [base.complex_workloads(i) for i in range(len(base.placement))]
    grid = run_grid(
        _group_workloads(complexes),
        sharing_keys,
        scale,
        experiment_config(num_cores=len(complexes[0])),
        jobs,
    )
    return [
        PairWinLoss(
            label="+".join(str(w) for w in workloads),
            workloads=workloads,
            cycles={key: result.total_cycles for key, result in results.items()},
        )
        for workloads, results in zip(complexes, grid)
    ]


def alloc_sweep(
    core_counts: Sequence[int] = (16,),
    alloc_keys: Optional[Sequence[str]] = None,
    sharing_keys: Sequence[str] = ("occamy",),
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    calibrate: bool = False,
    jobs: Jobs = None,
) -> List[AllocOutcome]:
    """The pairing × sharing × core-count matrix, memoised.

    Identical pairs recur across placements, so the marginal cost of an
    extra pairing policy is only the pairs nobody else formed.
    """
    from repro.alloc import ALLOC_POLICY_KEYS

    keys = tuple(alloc_keys) if alloc_keys is not None else ALLOC_POLICY_KEYS
    return [
        alloc_outcome(
            num_cores,
            alloc_key,
            sharing_key,
            scale=scale,
            seed=seed,
            calibrate=calibrate,
            jobs=jobs,
        )
        for num_cores in core_counts
        for sharing_key in sharing_keys
        for alloc_key in keys
    ]
