"""The multi-core machine: end-to-end runs and policy behaviour."""

import gc
import weakref

import pytest

from repro import (
    ALL_POLICIES,
    FTS,
    OCCAMY,
    PRIVATE,
    VLS,
    Job,
    Machine,
    experiment_config,
    run_policy,
)
from repro.common.errors import SimulationError
from repro.core.machine import run_policy as run_policy_fn
from tests.conftest import compiled_job, make_axpy, make_two_phase


class TestSingleCore:
    def test_solo_run_completes(self, config):
        result = run_policy(config, OCCAMY, [compiled_job(make_axpy()), None])
        assert result.total_cycles > 0
        assert result.core_cycles[1] == 0  # idle core

    def test_private_uses_half_the_lanes(self, config):
        result = run_policy(config, PRIVATE, [compiled_job(make_axpy()), None])
        lanes = result.metrics.lane_timeline[0]
        assert max(v for _, v in lanes.points) == config.lanes_per_core_private

    def test_occamy_solo_gets_all_lanes(self, config):
        kernel = make_two_phase()
        result = run_policy(config, OCCAMY, [compiled_job(kernel), None])
        lanes = result.metrics.lane_timeline[0]
        assert max(v for _, v in lanes.points) == config.vector.total_lanes

    def test_fts_runs_full_width(self, config):
        result = run_policy(config, FTS, [compiled_job(make_axpy()), None])
        lanes = result.metrics.lane_timeline[0]
        assert max(v for _, v in lanes.points) == config.vector.total_lanes


class TestTwoCores:
    def test_co_run_all_policies(self, config):
        for policy in ALL_POLICIES:
            jobs = [
                compiled_job(make_axpy(), core_id=0),
                compiled_job(make_two_phase(), core_id=1),
            ]
            result = run_policy(config, policy, jobs)
            assert all(cycles > 0 for cycles in result.core_cycles)

    def test_speedup_over(self, config):
        jobs = lambda: [
            compiled_job(make_axpy(), core_id=0),
            compiled_job(make_two_phase(), core_id=1),
        ]
        base = run_policy(config, PRIVATE, jobs())
        other = run_policy(config, OCCAMY, jobs())
        speedup = other.speedup_over(base, 1)
        assert speedup > 0

    def test_vls_partition_is_static(self, config):
        jobs = [
            compiled_job(make_axpy(), core_id=0),
            compiled_job(make_two_phase(), core_id=1),
        ]
        result = run_policy(config, VLS, jobs)
        # Each core's lane allocation takes exactly one nonzero value.
        for core in range(2):
            values = {v for _, v in result.metrics.lane_timeline[core].points if v}
            assert len(values) == 1


class TestGuards:
    def test_job_count_must_match_cores(self, config):
        with pytest.raises(SimulationError):
            Machine(config, PRIVATE, [compiled_job(make_axpy())])

    def test_max_cycles_enforced(self, config):
        with pytest.raises(SimulationError):
            run_policy_fn(config, PRIVATE, [compiled_job(make_axpy()), None], max_cycles=10)

    def test_lane_accounting_invariant_after_run(self, config):
        machine = Machine(config, OCCAMY, [compiled_job(make_axpy()), None])
        machine.run()
        machine.coproc.resource_table.check_invariant()

    def test_deterministic(self, config):
        results = []
        for _ in range(2):
            jobs = [
                compiled_job(make_axpy(), core_id=0),
                compiled_job(make_two_phase(), core_id=1),
            ]
            results.append(run_policy(config, OCCAMY, jobs).core_cycles)
        assert results[0] == results[1]

    def test_finished_machine_is_freed_without_the_collector(self, config):
        # Nothing a run builds may point back at the Machine, its
        # co-processor or a scalar core, or their memory is held until the
        # cycle collector happens to run and ``peak_rss_mb`` measures
        # collector timing.
        gc.collect()
        gc.disable()
        try:
            for audit in (False, True):
                machine = Machine(
                    config, OCCAMY, [compiled_job(make_axpy()), None], audit=audit
                )
                machine.run()
                refs = [weakref.ref(machine), weakref.ref(machine.coproc)]
                refs += [weakref.ref(core) for core in machine.cores if core]
                del machine
                assert [ref() for ref in refs] == [None] * len(refs), audit
        finally:
            gc.enable()
