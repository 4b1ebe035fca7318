"""OS time-slice scheduling over the elastic co-processor (paper §5).

The paper assumes lane partitioning and task scheduling work
independently: on a context switch the OS saves the five EM-SIMD
dedicated registers once all pipelines (including Occamy's) are drained,
and restores ``<OI>`` with an ``MSR`` — which *triggers a fresh lane
partition* — when the task resumes.  :class:`TimeSliceScheduler`
implements exactly that protocol for more workloads than cores:

* each workload is pinned to ``job_index % num_cores`` (no migration);
* at quantum expiry the outgoing workload stops transmitting, the core's
  SIMD pipeline drains, its ``<OI>``/``<VL>`` are saved, its lanes are
  released (``<VL> = 0``) and the lane manager re-plans for the remaining
  runners;
* at resume the saved ``<OI>`` is written back (re-triggering planning)
  and the saved ``<VL>`` is re-applied; if the lanes are momentarily
  unavailable the resume waits — the program's own partition monitor then
  adjusts toward the new plan at its next lazy point (Fig. 9), so the
  workload code needs no scheduler awareness at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError, SimulationError
from repro.coproc.coprocessor import CoProcessor, SharingMode
from repro.coproc.metrics import Metrics
from repro.core.machine import Job
from repro.core.policies import Policy
from repro.core.scalar_core import ScalarCore
from repro.isa.registers import OIValue


@dataclass
class _Task:
    """One schedulable workload and its saved EM-SIMD context."""

    job: Job
    core_id: int
    scalar: Optional[ScalarCore] = None
    saved_oi: OIValue = OIValue.ZERO
    saved_vl: int = 0
    finished: bool = False
    finish_cycle: Optional[int] = None
    scheduled_cycles: int = 0
    switches: int = 0


@dataclass
class ScheduleResult:
    """Outcome of a scheduled run."""

    total_cycles: int
    metrics: Metrics
    finish_cycles: List[Optional[int]]
    scheduled_cycles: List[int]
    context_switches: int

    def turnaround(self, task_index: int) -> int:
        finish = self.finish_cycles[task_index]
        return finish if finish is not None else self.total_cycles


class TimeSliceScheduler:
    """Round-robin time slicing of M workloads over C cores (M >= C)."""

    def __init__(
        self,
        config: MachineConfig,
        policy: Policy,
        jobs: Sequence[Job],
        quantum: int = 4000,
    ) -> None:
        if policy.mode is not SharingMode.SPATIAL:
            raise ConfigurationError(
                "the scheduling protocol saves/restores spatial lane "
                "contexts; use a spatial policy (private/vls/occamy)"
            )
        if quantum < 100:
            raise ConfigurationError("quantum must be at least 100 cycles")
        if not jobs:
            raise ConfigurationError("need at least one job")
        self.config = config
        self.policy = policy
        self.quantum = quantum
        phase_ois = {
            index % config.num_cores: list(job.program.meta.get("phase_ois", []))
            for index, job in enumerate(jobs)
        }
        self.lane_manager = policy.build_lane_manager(config, phase_ois)
        self.metrics = Metrics(
            num_cores=config.num_cores,
            total_lanes=config.vector.total_lanes,
            pipes_per_lane=config.vector.compute_issue_width,
        )
        self.coproc = CoProcessor(config, policy.mode, self.metrics, self.lane_manager)
        self.tasks = [
            _Task(job=job, core_id=index % config.num_cores)
            for index, job in enumerate(jobs)
        ]
        self._run_queues: List[List[int]] = [[] for _ in range(config.num_cores)]
        for index in range(len(self.tasks)):
            self._run_queues[index % config.num_cores].append(index)
        #: Per core: the running task index, or None while switching/idle.
        self._running: List[Optional[int]] = [None] * config.num_cores
        #: Per core: task waiting for drain ("out") or lane restore ("in").
        self._switching_out: List[Optional[int]] = [None] * config.num_cores
        self._switching_in: List[Optional[int]] = [None] * config.num_cores
        self._slice_end = [0] * config.num_cores
        self.context_switches = 0

    # -- protocol steps -----------------------------------------------------

    def _scalar_for(self, task: _Task) -> ScalarCore:
        if task.scalar is None:
            task.scalar = ScalarCore(
                core_id=task.core_id,
                program=task.job.program,
                image=task.job.image,
                coproc=self.coproc,
                metrics=self.metrics,
                config=self.config.core,
            )
        return task.scalar

    def _begin_switch_out(self, core: int, cycle: int) -> None:
        task_index = self._running[core]
        if task_index is None:
            return
        self._running[core] = None
        self._switching_out[core] = task_index

    def _try_complete_switch_out(self, core: int, cycle: int) -> None:
        task_index = self._switching_out[core]
        if task_index is None or not self.coproc.drained(core):
            return  # pipelines not drained yet; keep waiting
        task = self.tasks[task_index]
        table = self.coproc.resource_table
        # Save the dedicated registers, then release the core's resources.
        task.saved_oi = table.oi(core)
        task.saved_vl = table.vl(core)
        if table.vl(core):
            table.apply_vl(core, 0)
            self.metrics.on_lane_change(core, 0, cycle)
        table.set_oi(core, OIValue.ZERO)
        for decided, lanes in self.lane_manager.on_phase_change(table, cycle).items():
            table.set_decision(decided, lanes)
        task.switches += 1
        self.context_switches += 1
        self._switching_out[core] = None
        if not task.finished:
            self._run_queues[core].append(task_index)
        self._schedule_next(core, cycle)

    def _schedule_next(self, core: int, cycle: int) -> None:
        if self._run_queues[core]:
            self._switching_in[core] = self._run_queues[core].pop(0)
            self._try_complete_switch_in(core, cycle)

    def _try_complete_switch_in(self, core: int, cycle: int) -> None:
        task_index = self._switching_in[core]
        if task_index is None:
            return
        task = self.tasks[task_index]
        table = self.coproc.resource_table
        if not task.saved_oi.is_phase_end:
            # Restoring <OI> re-triggers lane partitioning (paper §5).
            table.set_oi(core, task.saved_oi)
            decisions = self.lane_manager.on_phase_change(table, cycle)
            for decided, lanes in decisions.items():
                table.set_decision(decided, lanes)
        if task.saved_vl:
            if not table.apply_vl(core, task.saved_vl):
                return  # lanes busy: retry next cycle
            self.metrics.on_lane_change(core, task.saved_vl, cycle)
        self._switching_in[core] = None
        self._running[core] = task_index
        self._slice_end[core] = cycle + self.quantum
        self.coproc.set_core_active(core, True)

    # -- the run loop ---------------------------------------------------------

    def run(self, max_cycles: int = 6_000_000) -> ScheduleResult:
        """Run until every workload halts and drains."""
        cycle = 0
        for core in range(self.config.num_cores):
            self._schedule_next(core, 0)
        while not all(task.finished for task in self.tasks):
            if cycle >= max_cycles:
                raise SimulationError(f"scheduled run exceeded {max_cycles} cycles")
            for core in range(self.config.num_cores):
                self._try_complete_switch_out(core, cycle)
                self._try_complete_switch_in(core, cycle)
                task_index = self._running[core]
                if task_index is None:
                    continue
                task = self.tasks[task_index]
                scalar = self._scalar_for(task)
                if not scalar.halted:
                    scalar.step(cycle)
                    task.scheduled_cycles += 1
                if scalar.halted and self.coproc.drained(core):
                    task.finished = True
                    task.finish_cycle = cycle
                    self._running[core] = None
                    self._begin_cleanup(core, cycle)
                    self._schedule_next(core, cycle)
                elif cycle >= self._slice_end[core] and self._run_queues[core]:
                    self._begin_switch_out(core, cycle)
            self.coproc.step(cycle)
            cycle += 1
        self.metrics.close(cycle)
        return ScheduleResult(
            total_cycles=cycle,
            metrics=self.metrics,
            finish_cycles=[task.finish_cycle for task in self.tasks],
            scheduled_cycles=[task.scheduled_cycles for task in self.tasks],
            context_switches=self.context_switches,
        )

    def _begin_cleanup(self, core: int, cycle: int) -> None:
        """Release a finished task's resources (its epilogue already set
        ``<VL> = 0``; this is belt-and-braces for aborted programs)."""
        table = self.coproc.resource_table
        if table.vl(core):
            table.apply_vl(core, 0)
            self.metrics.on_lane_change(core, 0, cycle)
