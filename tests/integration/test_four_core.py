"""Four-core behaviour (paper §7.6)."""

import pytest

from repro import (
    ALL_POLICIES,
    OCCAMY,
    PRIVATE,
    Job,
    build_image,
    compile_kernel,
    run_policy,
)
from repro.compiler.reference import check_answers
from repro.compiler.pipeline import CompileOptions
from repro.common.config import experiment_config
from repro.core.machine import Machine
from repro.workloads.pairs import jobs_for_group

GROUP = (1, 20, 16, 17)  # memory on cores 0/1, compute on cores 2/3
SCALE = 0.08


class TestFourCore:
    def test_all_policies_complete(self, config4):
        for policy in ALL_POLICIES:
            result = run_policy(config4, policy, jobs_for_group(GROUP, scale=SCALE))
            assert all(c > 0 for c in result.core_cycles)

    def test_lane_accounting_on_four_cores(self, config4):
        machine = Machine(config4, OCCAMY, jobs_for_group(GROUP, scale=SCALE))
        machine.run()
        machine.coproc.resource_table.check_invariant()
        assert machine.coproc.resource_table.free_lanes == 64

    def test_plans_never_oversubscribe(self, config4):
        machine = Machine(config4, OCCAMY, jobs_for_group(GROUP, scale=SCALE))
        machine.run()
        for _cycle, plan in machine.lane_manager.plan_history:
            assert sum(plan.values()) <= 64
            assert all(lanes >= 0 for lanes in plan.values())

    def test_private_splits_evenly(self, config4):
        result = run_policy(config4, PRIVATE, jobs_for_group(GROUP, scale=SCALE))
        for core in range(4):
            values = {v for _, v in result.metrics.lane_timeline[core].points if v}
            assert values == {16}

    def test_memory_cores_preserved_compute_cores_gain(self, config4):
        private = run_policy(config4, PRIVATE, jobs_for_group(GROUP, scale=SCALE))
        occamy = run_policy(config4, OCCAMY, jobs_for_group(GROUP, scale=SCALE))
        for core in (0, 1):
            assert occamy.speedup_over(private, core) > 0.85
        assert max(
            occamy.speedup_over(private, core) for core in (2, 3)
        ) > 1.05

    def test_duplicate_workloads_on_different_cores(self, config4):
        # Fig. 16's groups repeat workload ids (e.g. WL15 twice).
        result = run_policy(
            config4, OCCAMY, jobs_for_group((15, 6, 15, 16), scale=SCALE)
        )
        assert all(c > 0 for c in result.core_cycles)

    def test_functional_correctness_on_core3(self, config4):
        from repro.workloads.spec import spec_workload

        kernel = spec_workload(17, scale=SCALE)
        options = CompileOptions(memory=config4.memory)
        jobs = jobs_for_group(GROUP, scale=SCALE)
        jobs[3] = Job(compile_kernel(kernel, options), build_image(kernel, core_id=3))
        result = run_policy(config4, OCCAMY, jobs)
        check_answers([None, None, None, kernel], result.images, "WL17 on core 3")
