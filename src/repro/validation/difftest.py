"""Cross-engine differential fuzzing (``python -m repro diff-fuzz``).

There are two engines: the *fast* one (:class:`~repro.core.machine.Machine`
— pre-decoded scalar dispatch, per-component sleep on the event wheel and
the idle clock jump when all sleep, batched co-processor dispatch from the
pools' ready index) and the *reference* one, the seed interpreter stepped
cycle by cycle (:mod:`repro.validation.reference_engine`).  They are
promised bit-identical.
This module generates randomized multi-phase co-running programs, runs
each through both engines under every sharing mode, and diffs the complete
run fingerprint (architectural memory state, metrics, lane timelines,
stalls, phase records, cycle counts) — the ECM-style model-validation loop
turned on the simulator itself: one model, validated against one
reference.

Two engines that run the same compiled program agree on a compiler slip
too, so every case's answers are also held to the numpy oracle
(:func:`~repro.compiler.reference.check_answers`, section ``answers``),
and a case may add a run that forces a ``<decision>`` rotation no lane
manager would choose (:func:`run_forced`), splicing reductions and
re-initialising loop invariants at many vector-length changes (§6.4).

One fast stack means a mechanism can go unexercised without anyone
noticing — starved by a layer above it, or never reached by the cases —
so :class:`FuzzReport` also sums the fast runs' mechanism counters; a
sweep in which any mechanism saw no traffic proves nothing about it.

Cases are described by :class:`CaseSpec`, an explicit per-phase
instruction mix (not an opaque RNG trace), so the shrinker in
:mod:`repro.validation.shrink` can reduce a diverging case field by field
and a minimized spec can be pasted verbatim into a regression test.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import MachineConfig, experiment_config
from repro.common.errors import DeadlockError, SimulationError
from repro.compiler.ir import Kernel, Load, Reduce
from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
from repro.compiler.reference import check_answers
from repro.coproc.sharing import SharingMode
from repro.core import machine as machine_mod
from repro.core.machine import Job, Machine
from repro.core.policies import policy
from repro.core.result import RunProfile, RunResult
from repro.validation.fingerprint import (
    describe_divergence,
    diff_fingerprints,
    fingerprint_sections,
)
from repro.validation.reference_engine import ReferenceMachine
from repro.workloads.generator import COMPUTE_OI_RANGE, MEMORY_OI_RANGE
from repro.workloads.synth import Counts, solve_counts, synth_loop

#: One policy per sharing mode (spatial, temporal, coarse-temporal) — the
#: engine fast paths interact with the *mode*, not with the lane manager,
#: so this triple covers every dispatch/arbitration code path.
DEFAULT_POLICIES: Tuple[str, ...] = ("occamy", "fts", "cts")

#: Element trip counts the fuzzer draws from.  Deliberately smaller than
#: the benchmark trips: engine divergence is a per-iteration property, so
#: short loops find the same bugs at a fraction of the cost, and small
#: footprints still split across residency classes under the scaled caches.
STREAMING_TRIPS = (192, 320, 512)
RESIDENT_TRIPS = (96, 160, 256)

#: Lane counts a forced ``<decision>`` rotation draws from.
FORCED_LANES = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)

#: Cycles between two forced ``<decision>`` writes.
FORCED_PERIOD = 20


@dataclass(frozen=True)
class PhaseSpec:
    """One phase: an explicit instruction mix plus loop shape.

    ``reduce`` adds a sum of the first input: a loop-carried vector
    register, so a tail iteration's merging predication, the splice at a
    VL change and the horizontal reduction are diffed too (an element-wise
    body never reads an inactive lane).
    """

    comp: int
    reads: int
    extra_loads: int
    stores: int
    trip: int
    repeats: int
    reduce: bool = False

    def counts(self) -> Counts:
        """The (validated) instruction mix; raises ``CompilationError``."""
        return Counts(self.comp, self.reads, self.extra_loads, self.stores)


@dataclass(frozen=True)
class CaseSpec:
    """One fuzz case: per-core phase lists plus compiler options.

    ``cores[i]`` is either a tuple of :class:`PhaseSpec` or ``None`` (an
    idle core slot) — the shrinker uses ``None`` to drop whole co-runners.
    A non-empty ``forced`` also runs the spatial policies through
    :func:`run_forced` with that ``<decision>`` rotation, after each
    engine's own loop.
    """

    seed: int
    cores: Tuple[Optional[Tuple[PhaseSpec, ...]], ...]
    unroll: int = 1
    forced: Tuple[int, ...] = ()


@dataclass
class Divergence:
    """The fast engine disagreeing with the reference, or its answers with
    the oracle, under one policy.

    ``sections`` names the fingerprint sections that differ, or is
    ``["error"]`` when an engine crashed and the other did not crash the
    same way; ``"answers"`` ends it when the fast run's memory failed
    :func:`~repro.compiler.reference.check_answers`.
    """

    seed: int
    policy: str
    sections: List[str]
    detail: List[str]
    spec: Optional[CaseSpec] = field(default=None, repr=False)

    def __str__(self) -> str:
        return (
            f"seed {self.seed}: fast engine under {self.policy} diverged "
            f"from reference or oracle in {', '.join(self.sections)}"
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "policy": self.policy,
            "sections": list(self.sections),
            "detail": list(self.detail),
            "spec": None if self.spec is None else asdict(self.spec),
        }


# --- case generation --------------------------------------------------------


def generate_case(seed: int, num_cores: int = 2) -> CaseSpec:
    """Draw one deterministic random case.

    Even cores lean memory-intensive and odd cores compute-intensive (the
    paper's pairing, tiled across wider machines), with enough probability
    mass on the flipped and mixed shapes that same-class co-runners and
    multi-phase workloads are exercised too.  For ``num_cores=2`` the draw
    sequence is byte-identical to the historical two-core generator, so
    existing regression seeds keep reproducing the same cases.
    """
    rng = random.Random(seed)
    cores: List[Tuple[PhaseSpec, ...]] = []
    for core in range(num_cores):
        phases: List[PhaseSpec] = []
        for _ in range(rng.randint(1, 2)):
            streaming = rng.random() < (0.75 if core % 2 == 0 else 0.3)
            if streaming:
                oi = round(rng.uniform(*MEMORY_OI_RANGE), 3)
                counts = solve_counts(oi, min_footprint=3)
                trip = rng.choice(STREAMING_TRIPS)
                repeats = 1
            else:
                oi = round(rng.uniform(*COMPUTE_OI_RANGE), 3)
                counts = solve_counts(oi)
                trip = rng.choice(RESIDENT_TRIPS)
                repeats = rng.randint(1, 3)
            phases.append(
                PhaseSpec(
                    comp=counts.comp,
                    reads=counts.reads,
                    extra_loads=counts.extra_loads,
                    stores=counts.stores,
                    trip=trip,
                    repeats=repeats,
                )
            )
        cores.append(tuple(phases))
    unroll = rng.choice((1, 1, 1, 2))
    # Drawn last, so every earlier field keeps its historical draw.
    cores = [
        tuple(replace(phase, reduce=rng.random() < 0.5) for phase in phases)
        for phases in cores
    ]
    if num_cores > 2 and rng.random() < 0.5:
        # Zero-byte plan cuts come from unrolled bodies only, and a short
        # wide sweep has too few cases to count on the 1-in-4 draw above.
        unroll = 2
    # Drawn after every other field, so no earlier case moves.
    forced: Tuple[int, ...] = ()
    if rng.random() < 0.25:
        forced = tuple(rng.choice(FORCED_LANES) for _ in range(rng.randint(2, 4)))
    return CaseSpec(seed=seed, cores=tuple(cores), unroll=unroll, forced=forced)


def case_kernels(spec: CaseSpec) -> List[Optional[Kernel]]:
    """Materialise the spec's per-core kernels (deterministic)."""
    kernels: List[Optional[Kernel]] = []
    for core, phases in enumerate(spec.cores):
        if not phases:
            kernels.append(None)
            continue
        loops = []
        for index, phase in enumerate(phases):
            name = f"s{spec.seed}c{core}p{index}"
            loop = synth_loop(
                name, phase.counts(), trip_count=phase.trip, repeats=phase.repeats
            )
            if phase.reduce:
                acc = Reduce("add", f"{name}_acc", Load(f"{name}_in0"))
                loop = replace(loop, body=loop.body + (acc,))
            loops.append(loop)
        kernels.append(
            Kernel(
                name=f"difftest.s{spec.seed}c{core}",
                array_length=max(loop.trip_count for loop in loops) + 2,
                loops=tuple(loops),
            )
        )
    return kernels


# --- engine execution -------------------------------------------------------


class CompiledCase:
    """One spec compiled once; images are rebuilt fresh for every run."""

    def __init__(self, spec: CaseSpec, config: Optional[MachineConfig] = None) -> None:
        self.spec = spec
        self.config = config if config is not None else experiment_config()
        options = CompileOptions(memory=self.config.memory, unroll=spec.unroll)
        self.kernels = case_kernels(spec)
        self.programs = [
            None if kernel is None else compile_kernel(kernel, options)
            for kernel in self.kernels
        ]
        if all(program is None for program in self.programs):
            raise ValueError("a case needs at least one running core")

    def jobs(self) -> List[Optional[Job]]:
        """Fresh jobs — runs mutate their memory images."""
        return [
            None
            if program is None
            else Job(program=program, image=build_image(kernel, core_id=core))
            for core, (kernel, program) in enumerate(zip(self.kernels, self.programs))
        ]

    def machine(self, policy_key: str, audit: Optional[bool] = None) -> Machine:
        """A fresh (fast) machine for this case under ``policy_key``."""
        return Machine(self.config, policy(policy_key), self.jobs(), audit=audit)


def run_forced(
    machine: Machine,
    schedule: Sequence[int],
    period: int = FORCED_PERIOD,
    max_cycles: int = 3_000_000,
) -> RunResult:
    """Run ``machine`` one :meth:`~repro.core.machine.Machine.step` at a
    time, writing ``schedule[k % len(schedule)]`` into the first running
    core's ``<decision>`` at cycle ``k * period`` whenever it holds lanes.

    No lane manager would choose that schedule: the core's partition
    monitor sees a new length every ``period`` cycles, mid-loop and
    mid-reduction, so its program splices reductions and re-initialises
    loop invariants over and over (§6.4).  Both engines run through here
    the same way, so their fingerprints stay comparable.
    """
    core = next(index for index, job in enumerate(machine.jobs) if job is not None)
    table = machine.coproc.resource_table
    cycle = 0
    last_progress = 0
    while not machine.finished:
        if cycle >= max_cycles:
            raise SimulationError(
                f"forced-decision run exceeded {max_cycles} cycles "
                f"(policy={machine.policy.key})"
            )
        if cycle % period == 0 and table.vl(core) > 0:
            table.set_decision(core, schedule[(cycle // period) % len(schedule)])
        if machine.step(cycle):
            last_progress = cycle
        elif (
            cycle - last_progress > machine_mod.DEADLOCK_WINDOW
            and machine.next_event_cycle(cycle) is None
        ):
            raise DeadlockError(
                f"no forward progress since cycle {last_progress} "
                f"(policy={machine.policy.key})"
            )
        cycle += 1
    return machine._result(cycle)


def schedules(spec: CaseSpec, policy_key: str) -> List[Tuple[int, ...]]:
    """The runs ``spec`` makes under ``policy_key``: always each engine's
    own loop (``()``), plus the forced rotation when the case has one and
    the policy partitions lanes spatially."""
    if spec.forced and policy(policy_key).mode is SharingMode.SPATIAL:
        return [(), spec.forced]
    return [()]


def _outcome(run: Callable[[], RunResult]) -> Tuple[Dict[str, object], Optional[RunResult]]:
    """What one engine made of a case: its fingerprint sections and result,
    or an ``error`` section holding the ``(type, message)`` it died of (plus
    where, for the report — the engines' loops differ, so not compared)."""
    try:
        result = run()
    except Exception as exc:  # a crash is an outcome to diff, not to die of
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return {
            "error": (type(exc).__name__, str(exc)),
            "raised at": f"{frame.filename}:{frame.lineno} in {frame.name}",
        }, None
    return fingerprint_sections(result), result


def _check_run(
    compiled: CompiledCase,
    policy_key: str,
    schedule: Tuple[int, ...],
    max_cycles: int,
    audit: Optional[bool],
    profile: Optional[RunProfile],
) -> Tuple[List[str], List[str]]:
    """One run of both engines under ``policy_key`` — each through its own
    loop, or both through :func:`run_forced` when ``schedule`` is set —
    and of the fast run's answers against the oracle: the sections that
    differ and the lines describing them."""

    def run(machine: Machine) -> RunResult:
        if schedule:
            return run_forced(machine, schedule, FORCED_PERIOD, max_cycles)
        return machine.run(max_cycles)

    reference = ReferenceMachine(
        compiled.config, policy(policy_key), compiled.jobs(), audit=audit
    )
    baseline, _ = _outcome(lambda: run(reference))
    fast = compiled.machine(policy_key, audit=audit)
    sections, result = _outcome(lambda: run(fast))
    if profile is not None and fast.profile is not None:
        profile.merge(fast.profile)
    errors = [o["error"] for o in (baseline, sections) if "error" in o]
    if errors:
        same = len(errors) == 2 and errors[0] == errors[1]
        audit_violation = errors[0][0] == "InvariantViolation"
        diverged = [] if same and not audit_violation else ["error"]
        shown = ["error", "raised at"]
    else:
        shown = diverged = diff_fingerprints(baseline, sections)
    detail = describe_divergence(baseline, sections, shown) if diverged else []
    if result is not None:
        try:
            check_answers(
                compiled.kernels,
                result.images,
                f"seed {compiled.spec.seed} under {policy_key}",
            )
        except SimulationError as exc:
            diverged = diverged + ["answers"]
            detail.append(str(exc))
    return diverged, detail


def check_case(
    spec: CaseSpec,
    policies: Sequence[str] = DEFAULT_POLICIES,
    config: Optional[MachineConfig] = None,
    max_cycles: int = 3_000_000,
    audit: Optional[bool] = None,
    profile: Optional[RunProfile] = None,
) -> List[Divergence]:
    """Diff the fast engine against the reference engine, per policy, and
    hold the fast run's answers to the oracle.

    Returns one :class:`Divergence` per policy whose full fast-run
    fingerprint differs from the reference's, or whose memory fails
    :func:`~repro.compiler.reference.check_answers` (section ``answers``);
    empty means the fast engine is bit-exact and right on this case.  An
    engine that raises is an outcome too: both dying of the same
    simulation error (a deadlock, ``max_cycles``) agree, anything else —
    one crashing, different errors, an ``--audit`` invariant violation
    even on both — is a divergence in section ``error``.  A case with a
    forced rotation adds a second run of both engines under a spatial
    policy (:func:`schedules`); what it finds is named ``forced <section>``.
    ``profile``, when given, accumulates the fast engine's own runs'
    ``Machine.profile``.
    """
    compiled = CompiledCase(spec, config)
    divergences: List[Divergence] = []
    for policy_key in policies:
        diverged: List[str] = []
        detail: List[str] = []
        for schedule in schedules(spec, policy_key):
            sections, lines = _check_run(
                compiled, policy_key, schedule, max_cycles, audit, profile
            )
            if schedule and sections:
                sections = [f"forced {section}" for section in sections]
                lines.insert(
                    0,
                    f"under the forced <decision> rotation {list(schedule)} "
                    f"every {FORCED_PERIOD} cycles:",
                )
            diverged += sections
            detail += lines
        if diverged:
            divergences.append(
                Divergence(
                    seed=spec.seed,
                    policy=policy_key,
                    sections=diverged,
                    detail=detail,
                    spec=spec,
                )
            )
    return divergences


@dataclass
class FuzzReport:
    """Outcome of one fuzzing sweep."""

    seeds: List[int]
    cases: int
    runs: int
    divergences: List[Divergence]
    #: Sum of every fast run's ``Machine.profile``.
    profile: RunProfile = field(default_factory=RunProfile)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def traffic(self) -> Dict[str, int]:
        """What each fast-engine mechanism did over the sweep.

        A zero means the sweep never reached that mechanism, so its clean
        result says nothing about it.
        """
        profile = self.profile
        return {
            "interpreted cycles": profile.interpreted_cycles,
            "fast-forwarded cycles": profile.fastforward_cycles,
            "component-asleep cycles": sum(profile.component_asleep),
            "batched dispatch calls": profile.batched_dispatch_calls,
            "zero-byte plan cuts": profile.plan_cuts,
        }

    @property
    def starved(self) -> List[str]:
        """Mechanisms the sweep never reached."""
        return [name for name, count in self.traffic().items() if count == 0]

    def to_json(self) -> Dict[str, object]:
        return {
            "seeds": self.seeds,
            "cases": self.cases,
            "runs": self.runs,
            "clean": self.clean,
            "traffic": self.traffic(),
            "divergences": [d.to_json() for d in self.divergences],
        }


def fuzz_seeds(
    seeds: Sequence[int],
    policies: Sequence[str] = DEFAULT_POLICIES,
    config: Optional[MachineConfig] = None,
    max_cycles: int = 3_000_000,
    audit: Optional[bool] = None,
    progress: Optional[Callable[[str], None]] = None,
    num_cores: int = 2,
) -> FuzzReport:
    """Run :func:`check_case` over ``seeds``; collect every divergence.

    ``num_cores`` widens the generated co-runs (and, when no explicit
    ``config`` is given, the machine) — the N-core smoke lever.
    """
    report = FuzzReport(seeds=list(seeds), cases=len(seeds), runs=0, divergences=[])
    for index, seed in enumerate(seeds):
        spec = generate_case(seed, num_cores)
        # Without a config, the machine is as wide as the case.
        case_config = config or experiment_config(len(spec.cores))
        found = check_case(spec, policies, case_config, max_cycles, audit, report.profile)
        report.runs += 2 * len(policies)
        report.divergences.extend(found)
        if progress is not None and ((index + 1) % 10 == 0 or found):
            status = (
                f"{len(report.divergences)} divergence(s)"
                if report.divergences
                else "clean"
            )
            progress(f"  [{index + 1}/{len(seeds)}] seed {seed}: {status}")
    return report
