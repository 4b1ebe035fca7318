"""OS time-slice scheduling over the elastic co-processor (§5)."""

import numpy as np
import pytest

from repro import (
    FTS,
    OCCAMY,
    PRIVATE,
    build_image,
    compile_kernel,
    reference_execute,
)
from repro.common.errors import ConfigurationError
from repro.core.machine import Job
from repro.core.scheduling import TimeSliceScheduler
from tests.conftest import make_axpy, make_reduction, make_two_phase


def jobs_for(kernels):
    return [
        Job(compile_kernel(kernel), build_image(kernel, core_id=index % 2))
        for index, kernel in enumerate(kernels)
    ]


class TestScheduling:
    def test_more_jobs_than_cores_all_finish(self, config):
        kernels = [make_axpy(400), make_two_phase(400), make_reduction(400), make_axpy(300)]
        scheduler = TimeSliceScheduler(config, OCCAMY, jobs_for(kernels), quantum=800)
        result = scheduler.run()
        assert all(cycles is not None for cycles in result.finish_cycles)
        assert result.context_switches > 0

    def test_results_correct_across_context_switches(self, config):
        kernels = [make_axpy(512, repeats=3), make_reduction(512, repeats=3),
                   make_two_phase(512)]
        jobs = jobs_for(kernels)
        expected = [
            reference_execute(kernel, job.image)
            for kernel, job in zip(kernels, jobs)
        ]
        scheduler = TimeSliceScheduler(config, OCCAMY, jobs, quantum=600)
        scheduler.run()
        for kernel, job, oracle in zip(kernels, jobs, expected):
            for name, array in oracle:
                np.testing.assert_allclose(
                    job.image.array(name), array, rtol=1e-3,
                    err_msg=f"{kernel.name}/{name} corrupted by scheduling",
                )

    def test_lane_accounting_survives_switches(self, config):
        kernels = [make_axpy(400), make_axpy(400), make_two_phase(400)]
        scheduler = TimeSliceScheduler(config, OCCAMY, jobs_for(kernels), quantum=500)
        scheduler.run()
        scheduler.coproc.resource_table.check_invariant()
        assert scheduler.coproc.resource_table.free_lanes == 32

    def test_exact_core_count_needs_no_switches(self, config):
        kernels = [make_axpy(300), make_axpy(300)]
        scheduler = TimeSliceScheduler(
            config, PRIVATE, jobs_for(kernels), quantum=10_000_000
        )
        result = scheduler.run()
        assert result.context_switches == 0

    def test_scheduled_cycles_accounted(self, config):
        kernels = [make_axpy(400), make_axpy(400), make_axpy(400)]
        scheduler = TimeSliceScheduler(config, PRIVATE, jobs_for(kernels), quantum=500)
        result = scheduler.run()
        assert all(cycles > 0 for cycles in result.scheduled_cycles)
        assert result.turnaround(2) >= result.scheduled_cycles[2]

    def test_temporal_policy_rejected(self, config):
        with pytest.raises(ConfigurationError):
            TimeSliceScheduler(config, FTS, jobs_for([make_axpy(200)]))

    def test_bad_quantum_rejected(self, config):
        with pytest.raises(ConfigurationError):
            TimeSliceScheduler(config, OCCAMY, jobs_for([make_axpy(200)]), quantum=10)

    def test_no_jobs_rejected(self, config):
        with pytest.raises(ConfigurationError):
            TimeSliceScheduler(config, OCCAMY, [])


class TestHierarchicalWheel:
    """The lazy-heap wake index against a brute-force ``min`` oracle (the
    class keeps the name of the two-level wheel it was written for)."""

    def test_matches_flat_wheel_on_randomized_schedules(self):
        import random

        from repro.core.machine import EventWheel

        class FlatWheel:
            """The wake-index contract spelled out over one dict."""

            def __init__(self):
                self.wake = {}

            def next_wake(self):
                return min(self.wake.values()) if self.wake else None

            def due(self, cycle):
                out = sorted(c for c, w in self.wake.items() if w <= cycle)
                for component in out:
                    del self.wake[component]
                return out

        for seed in range(20):
            rng = random.Random(seed)
            flat = FlatWheel()
            hier = EventWheel()
            clock = 0
            for _ in range(300):
                action = rng.random()
                component = rng.randrange(64)
                if action < 0.55:
                    cycle = clock + rng.randrange(1, 400)
                    flat.wake[component] = cycle
                    hier.schedule(component, cycle)
                elif action < 0.75:
                    flat.wake.pop(component, None)
                    hier.cancel(component)
                else:
                    # Advance to (or past) the next wake and pop, the way
                    # the tickless run loop drives the wheel.
                    target = flat.next_wake()
                    assert hier.next_wake() == target
                    if target is None:
                        continue
                    clock = target + rng.choice((0, 0, 0, 3, 17))
                    assert hier.due(clock) == flat.due(clock)
                assert len(hier) == len(flat.wake)
                assert hier.wake_of(component) == flat.wake.get(component)
                assert hier.next_wake() == flat.next_wake()
            # Drain both: the full remaining wake sequence must agree.
            while flat.next_wake() is not None:
                target = flat.next_wake()
                assert hier.next_wake() == target
                assert hier.due(target) == flat.due(target)
            assert hier.next_wake() is None
            assert len(hier) == 0

    def test_reschedule_overrides_stale_heap_entries(self):
        from repro.core.machine import EventWheel

        wheel = EventWheel()
        wheel.schedule(5, 100)
        wheel.schedule(5, 40)  # moves earlier: old entry is stale
        assert wheel.next_wake() == 40
        assert wheel.due(40) == [5]
        wheel.schedule(6, 10)
        wheel.schedule(6, 500)  # moves later: earlier entry is stale
        assert wheel.next_wake() == 500
        assert wheel.due(10) == []
        assert wheel.due(500) == [6]

    def test_machine_fingerprint_identical_with_and_without(self, config):
        """The wheel-driven fast engine against the wheel-less reference."""
        from repro.core.policies import policy
        from tests.conftest import compiled_job, engines_agree

        engines_agree(
            config,
            policy("occamy"),
            lambda: [
                compiled_job(make_axpy(2048), 0),
                compiled_job(make_reduction(256, 8), 1),
            ],
        )
