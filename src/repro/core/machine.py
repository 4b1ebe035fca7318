"""The multi-core system: scalar cores + shared co-processor + policy.

:class:`Machine` wires up one :class:`~repro.coproc.coprocessor.CoProcessor`
(under a sharing :class:`~repro.core.policies.Policy`) with one scalar core
per workload and advances everything cycle by cycle until every workload
halts and drains.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import MachineConfig
from repro.common.errors import DeadlockError, SimulationError
from repro.coproc.coprocessor import CoProcessor
from repro.coproc.metrics import Metrics
from repro.coproc.sharing import SharingMode
from repro.core.policies import Policy
from repro.core.result import RunProfile
from repro.core.result import Job, RunResult  # re-exported: the old import path
from repro.core.scalar_core import ScalarCore
from repro.validation.invariants import InvariantAuditor, audit_enabled

#: Cycles without any retire/dispatch/commit before declaring deadlock.
DEADLOCK_WINDOW = 100_000


class EventWheel:
    """Wake index for the tickless run loop.

    Each sleeping component registers the earliest future cycle at which
    its externally observable behaviour can change (its *wake cycle*); the
    run loop asks :meth:`due` which components must be settled and stepped
    at the current cycle and :meth:`next_wake` how far the global clock may
    jump when everything is asleep.  Early wakes are harmless (the
    component re-sleeps); late wakes are forbidden — the bit-exactness of
    the tickless engine rests on every component's wake being a lower
    bound on its next state change.

    One lazy min-heap of ``(wake, component)`` entries.  ``_wake`` is the
    ground truth: a heap entry is valid only while ``_wake[component]``
    still equals its recorded cycle, so cancels and reschedules are O(1)
    and stale entries are discarded when they surface at the heap top.
    """

    def __init__(self) -> None:
        self._wake: Dict[int, int] = {}
        self._heap: List[Tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self._wake)

    def schedule(self, component: int, cycle: int) -> None:
        """Register (or move) ``component``'s wake to ``cycle``."""
        self._wake[component] = cycle
        heappush(self._heap, (cycle, component))

    def cancel(self, component: int) -> None:
        """Drop ``component``'s wake, if any (idempotent)."""
        self._wake.pop(component, None)

    def wake_of(self, component: int) -> Optional[int]:
        """The registered wake cycle, or ``None`` if not scheduled."""
        return self._wake.get(component)

    def next_wake(self) -> Optional[int]:
        """Earliest registered wake across all components, or ``None``."""
        wake = self._wake
        heap = self._heap
        while heap and wake.get(heap[0][1]) != heap[0][0]:
            heappop(heap)  # stale: cancelled or rescheduled
        return heap[0][0] if heap else None

    def due(self, cycle: int) -> List[int]:
        """Pop and return components whose wake is ``<= cycle``, sorted."""
        wake = self._wake
        heap = self._heap
        out: List[int] = []
        while heap and heap[0][0] <= cycle:
            entry_cycle, component = heappop(heap)
            if wake.get(component) == entry_cycle:
                del wake[component]
                out.append(component)
        return sorted(out)


class Machine:
    """A ``config.num_cores``-core system under one sharing policy.

    The engine stacks pre-decoded scalar dispatch, per-component sleep on
    the event wheel (whose limit case, every component asleep, is the idle
    clock jump), the pools' ready index and completion heap, and batched
    co-processor dispatch.
    """

    #: The co-processor and scalar-core classes a machine is built from.
    coproc_class = CoProcessor
    core_class = ScalarCore

    def __init__(
        self,
        config: MachineConfig,
        policy: Policy,
        jobs: Sequence[Optional[Job]],
        audit: Optional[bool] = None,
    ) -> None:
        if len(jobs) != config.num_cores:
            raise SimulationError(
                f"need one job slot per core: {len(jobs)} jobs, "
                f"{config.num_cores} cores"
            )
        self.config = config
        self.policy = policy
        self.jobs = list(jobs)
        phase_ois: Dict[int, list] = {
            core: list(job.program.meta.get("phase_ois", []))
            for core, job in enumerate(jobs)
            if job is not None
        }
        self.lane_manager = policy.build_lane_manager(config, phase_ois)
        self.metrics = Metrics(
            num_cores=config.num_cores,
            total_lanes=config.vector.total_lanes,
            pipes_per_lane=config.vector.compute_issue_width,
        )
        self.coproc = self.coproc_class(
            config, policy.mode, self.metrics, self.lane_manager
        )
        self._done: List[bool] = [job is None for job in jobs]
        # Per-component (core complex = scalar core + pool + LSU) sleep
        # bookkeeping for the tickless scheduler.
        num_cores = config.num_cores
        self._awake: List[bool] = [True] * num_cores
        self._asleep_count = 0
        self._live_count = 0
        self._sleep_from: List[int] = [0] * num_cores
        #: Per sleeper, the :meth:`Metrics.core_idle_events` it repeats.
        self._sleep_events: List[tuple] = [(None, None)] * num_cores
        self._wheel = EventWheel()
        #: Sorted list of awake live cores.
        self._active: List[int] = []
        self._comp_busy: List[int] = [0] * num_cores
        self._comp_idle: List[int] = [0] * num_cores
        self._comp_asleep: List[int] = [0] * num_cores
        self._ff_skipped = 0
        #: What :meth:`_step_fast` resets the per-core event counts to.
        self._no_events: List[int] = [0] * num_cores
        #: Simulated-cycle attribution of the last completed :meth:`run`
        #: (the same object as its result's ``profile``).
        self.profile: Optional[RunProfile] = None
        #: Opt-in runtime invariant auditor (``REPRO_AUDIT`` / ``audit=True``);
        #: strictly read-only, so audited runs stay bit-identical.
        self.auditor = None
        if audit if audit is not None else audit_enabled():
            self.auditor = InvariantAuditor(self)
        self.cores: List[Optional[ScalarCore]] = []
        for core_id, job in enumerate(jobs):
            if job is None:
                self.cores.append(None)
                self.coproc.set_core_active(core_id, False)
                self.metrics.on_core_done(core_id, 0)
            else:
                self.cores.append(
                    self.core_class(
                        core_id=core_id,
                        program=job.program,
                        image=job.image,
                        coproc=self.coproc,
                        metrics=self.metrics,
                        config=config.core,
                    )
                )

    def step(self, cycle: int) -> int:
        """Advance every core and the co-processor by one cycle.

        Returns the number of events processed (0 means no forward
        progress this cycle).  Exposed so tests and interactive tools can
        interleave simulation with external actions (e.g. forcing lane
        decisions); normal users call :meth:`run`.
        """
        progress = 0
        for core_id, core in enumerate(self.cores):
            if core is not None and not self._done[core_id]:
                progress += core.step(cycle)
        progress += self.coproc.step(cycle)
        for core_id, core in enumerate(self.cores):
            if core is None or self._done[core_id]:
                continue
            if core.halted and self.coproc.drained(core_id):
                self._done[core_id] = True
                self.metrics.on_core_done(core_id, cycle)
                self.coproc.set_core_active(core_id, False)
                progress += 1
        if self.auditor is not None:
            self.auditor.check_machine(cycle)
        return progress

    @property
    def finished(self) -> bool:
        """True when every workload has halted and drained."""
        return all(self._done)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which any component's state can change.

        Only meaningful right after a zero-progress :meth:`step`; see
        :meth:`CoProcessor.next_event_cycle` for the event sources.
        """
        candidates = [self.coproc.next_event_cycle(cycle)]
        for core_id, core in enumerate(self.cores):
            if core is not None and not self._done[core_id]:
                candidates.append(core.next_event_cycle(cycle))
        live = [c for c in candidates if c is not None]
        return min(live) if live else None

    def run(self, max_cycles: int = 3_000_000) -> RunResult:
        """Simulate until every workload halts and drains."""
        cycle = self._run_fast(max_cycles)
        profile = RunProfile()
        batch = self.coproc._batch
        profile.batched_dispatch_calls = batch.batched_calls
        profile.batched_uops = batch.batched_uops
        profile.plan_cuts = batch.plan_cuts
        profile.total_cycles = cycle
        profile.fastforward_cycles = self._ff_skipped
        profile.interpreted_cycles = cycle - self._ff_skipped
        profile.component_busy = list(self._comp_busy)
        profile.component_idle = list(self._comp_idle)
        profile.component_asleep = list(self._comp_asleep)
        self.profile = profile
        return self._result(cycle, profile)

    def _result(self, cycle: int, profile: Optional[RunProfile] = None) -> RunResult:
        """Close the books at ``cycle`` and package the run."""
        self.metrics.close(cycle)
        return RunResult(
            policy_key=self.policy.key,
            config=self.config,
            metrics=self.metrics,
            total_cycles=cycle,
            core_cycles=[self.metrics.core_cycles(c) for c in range(self.config.num_cores)],
            images=[job.image if job else None for job in self.jobs],
            lane_manager=self.lane_manager,
            lsu_stats=[lsu.stats for lsu in self.coproc.lsus],
            cache_stats={
                "vec_cache": self.coproc.memory.vec_cache.stats,
                "l2": self.coproc.memory.l2.stats,
            },
            profile=profile,
        )

    # --- the tickless run loop -----------------------------------------------

    def _run_fast(self, max_cycles: int) -> int:
        """The tickless run loop: per-component sleep/wake on an event wheel.

        A *component* is one core complex — scalar core, instruction pool
        and LSU.  After a cycle in which a component processed no event, it
        reports its wake cycle (earliest future cycle at which its
        behaviour can change: next pool completion, store retire, pending
        scalar writeback, or CTS quantum boundary) into the wheel and goes
        to sleep; the stall reason and EM-SIMD overhead it recorded that
        cycle are captured once and settled in bulk when it wakes.
        Sleeping components are skipped by :meth:`CoProcessor.step`; when
        every live component sleeps, the global clock jumps straight to the
        earliest wake.  Temporal sharing (FTS) couples the cores through
        one issue budget and one renamer, so there the components sleep all
        together or not at all — only after a machine-wide zero-progress
        cycle, and only if none would wake at the very next cycle — and a
        due wake of any of them settles all.  The three per-core loops of a
        cycle walk the sorted *active list* (awake live cores), so a cycle
        costs O(components with work).  Bit-identical to calling
        :meth:`step` once per cycle, which is what the oracle does
        (``ReferenceMachine`` in :mod:`repro.validation.reference_engine`;
        the differential fuzzer diffs the two).
        """
        metrics = self.metrics
        coproc = self.coproc
        wheel = self._wheel
        wheel_heap = wheel._heap
        awake = self._awake
        active = self._active = [
            core_id
            for core_id, core in enumerate(self.cores)
            if core is not None and not self._done[core_id]
        ]
        self._live_count = len(active)
        coupled = coproc.mode is SharingMode.TEMPORAL
        coproc.wake_all_hook = self._wake_all_mid_cycle
        core_events = [0] * self.config.num_cores
        cycle = 0
        last_progress = 0
        try:
            while self._live_count:
                if cycle >= max_cycles:
                    self._settle_all(cycle)
                    raise SimulationError(
                        f"simulation exceeded {max_cycles} cycles "
                        f"(policy={self.policy.key})"
                    )
                if self._asleep_count:
                    # ``due`` is asked only when the heap top is due: below
                    # that it would pop nothing and return nothing.
                    if wheel_heap and wheel_heap[0][0] <= cycle:
                        due = wheel.due(cycle)
                        if due and coupled:
                            self._settle_all(cycle)
                        else:
                            for component in due:
                                self._settle(component, cycle)
                    if self._asleep_count == self._live_count:
                        nxt = wheel.next_wake()
                        if nxt is None:
                            # Every component is frozen with no event
                            # pending: jump to the deadlock horizon.
                            nxt = last_progress + DEADLOCK_WINDOW + 1
                        target = min(nxt, max_cycles)
                        if target > cycle:
                            skipped = target - cycle
                            coproc.skip_idle_cycles(skipped)
                            self._ff_skipped += skipped
                            cycle = target
                            continue
                metrics.begin_cycle(cycle)
                progress = self._step_fast(cycle, core_events)
                if progress:
                    last_progress = cycle
                elif (
                    cycle - last_progress > DEADLOCK_WINDOW
                    and self.next_event_cycle(cycle) is None
                ):
                    self._settle_all(cycle)
                    raise DeadlockError(
                        f"no forward progress since cycle {last_progress} "
                        f"(policy={self.policy.key})"
                    )
                if not (coupled and progress):
                    sleepers = []
                    for component in active:
                        if core_events[component]:
                            continue
                        wake = self._component_wake(component, cycle)
                        # A wake at the next cycle leaves nothing to skip.
                        if wake is None or wake > cycle + 1:
                            sleepers.append((component, wake))
                    if coupled and len(sleepers) < len(active):
                        sleepers = ()
                    for component, wake in sleepers:
                        awake[component] = False
                        self._asleep_count += 1
                        self._sleep_from[component] = cycle + 1
                        self._sleep_events[component] = metrics.core_idle_events(
                            component
                        )
                        active.remove(component)
                        if wake is not None:
                            wheel.schedule(component, wake)
                cycle += 1
        finally:
            coproc.wake_all_hook = None
        self._settle_all(cycle)
        return cycle

    def _step_fast(self, cycle: int, core_events: List[int]) -> int:
        """One tickless cycle: step only awake components.

        The three per-core loops walk the sorted active list instead of
        every core slot; ``core_events`` is still reset for *all* slots
        because a mid-cycle CTS wake can re-activate a sleeper whose entry
        must read zero.  The active list is mutated in place by done
        detection here and by :meth:`_settle` on mid-cycle wakes, so both
        post-dispatch loops walk snapshots.
        """
        active = self._active
        core_events[:] = self._no_events
        progress = 0
        cores = self.cores
        for core_id in active:
            retired = cores[core_id].step(cycle)
            core_events[core_id] += retired
            progress += retired
        progress += self.coproc.step(cycle, self._awake, core_events, active)
        checklist = tuple(active)
        for core_id in checklist:
            core = cores[core_id]
            if core.halted and self.coproc.drained(core_id):
                self._done[core_id] = True
                self.metrics.on_core_done(core_id, cycle)
                self.coproc.set_core_active(core_id, False)
                self._live_count -= 1
                active.remove(core_id)
                core_events[core_id] += 1
                progress += 1
        for core_id in checklist:
            if self._done[core_id]:
                continue
            if core_events[core_id]:
                self._comp_busy[core_id] += 1
            else:
                self._comp_idle[core_id] += 1
        if self.auditor is not None:
            self.auditor.check_machine(cycle)
        return progress

    def _component_wake(self, component: int, cycle: int) -> Optional[int]:
        """Earliest future cycle at which ``component`` can change behaviour.

        The wake-cycle contract: a sleeping component repeats this cycle's
        captured stall and overhead verbatim until (a) one of its issued instructions
        completes (unblocking commit, dependants, renamer frees and the
        transmit gate), (b) a queued store retires from its STQ, (c) a
        pending vector→scalar writeback lands in the scalar core, or — under
        coarse temporal sharing — (d) a quantum/drain boundary passes.  CTS
        ownership *switches* between boundaries are handled by a mid-cycle
        wake from the arbiter (:attr:`CoProcessor.wake_all_hook`).  Early
        wakes are harmless; ``None`` means no self-generated event can ever
        occur (the component sleeps until an external wake or deadlock).
        """
        earliest: float = math.inf
        completion = self.coproc.pools[component].next_completion(cycle)
        if completion is not None and completion < earliest:
            earliest = completion
        retire = self.coproc.lsus[component].next_store_retire(cycle)
        if retire is not None and retire < earliest:
            earliest = retire
        core = self.cores[component]
        if core is not None:
            pending = core.next_event_cycle(cycle)
            if pending is not None and pending < earliest:
                earliest = pending
        if self.coproc.mode is SharingMode.COARSE_TEMPORAL:
            for boundary in (
                self.coproc._cts_blocked_until,
                self.coproc._cts_until,
            ):
                if cycle < boundary < earliest:
                    earliest = boundary
        if earliest is math.inf:
            return None
        return int(math.ceil(earliest))

    def _settle(self, component: int, cycle: int) -> None:
        """Wake ``component``, settling its slept span's metrics in bulk."""
        if self._awake[component]:
            return
        start = self._sleep_from[component]
        slept = cycle - start
        if slept > 0:
            self.metrics.replay_core_idle_cycles(
                component, self._sleep_events[component], slept
            )
            self.metrics.on_sleep_span(component, start, cycle)
            self._comp_asleep[component] += slept
        self._awake[component] = True
        self._asleep_count -= 1
        insort(self._active, component)
        self._wheel.cancel(component)

    def _settle_all(self, cycle: int) -> None:
        for component in range(self.config.num_cores):
            self._settle(component, cycle)

    def _wake_all_mid_cycle(self, cycle: int) -> None:
        """CTS arbiter callback: an ownership switch fired at ``cycle``.

        Sleeping components' scalar phases for this very cycle were skipped
        while still frozen (the switch happens in the later dispatch
        phase), so after settling the span up to ``cycle`` their captured
        EM-SIMD overhead is recorded once more — through the live hook, so
        a component that goes back to sleep at the end of this very cycle
        captures it again; the dispatch phase then runs live with the
        post-switch attribution.  Their commit and EM-SIMD phases this
        cycle are provably no-ops (no completion due before their wake,
        head not an executable EM-SIMD).
        """
        for component in range(self.config.num_cores):
            if self._awake[component]:
                continue
            overhead = self._sleep_events[component][1]
            self._settle(component, cycle)
            if overhead is not None:
                self.metrics.on_overhead_cycle(component, overhead)


def run_policy(
    config: MachineConfig,
    policy: Policy,
    jobs: Sequence[Optional[Job]],
    max_cycles: int = 3_000_000,
    audit: Optional[bool] = None,
) -> RunResult:
    """Convenience wrapper: build a machine and run it."""
    return Machine(config, policy, jobs, audit=audit).run(max_cycles=max_cycles)
