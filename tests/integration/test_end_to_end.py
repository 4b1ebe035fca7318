"""End-to-end behavioural claims of the paper on small co-runs."""

import pytest

from repro import (
    ALL_POLICIES,
    FTS,
    OCCAMY,
    PRIVATE,
    VLS,
    Job,
    build_image,
    compile_kernel,
    experiment_config,
    run_policy,
)
from repro.analysis.reporting import geomean
from repro.compiler.pipeline import CompileOptions
from repro.compiler.reference import check_answers
from repro.coproc.metrics import StallReason
from repro.workloads.motivating import motivating_pair

SCALE = 0.45  # WL#1 must outlive WL#0, as in the paper


@pytest.fixture(scope="module")
def motivation_results():
    config = experiment_config()
    wl0, wl1 = motivating_pair(SCALE)
    options = CompileOptions(memory=config.memory)
    p0, p1 = compile_kernel(wl0, options), compile_kernel(wl1, options)
    results = {}
    for policy in ALL_POLICIES:
        jobs = [Job(p0, build_image(wl0, 0)), Job(p1, build_image(wl1, 1))]
        results[policy.key] = run_policy(config, policy, jobs)
    return results


class TestMotivatingExample(object):
    def test_occamy_fastest_on_compute_core(self, motivation_results):
        base = motivation_results["private"].core_time(1)
        times = {k: r.core_time(1) for k, r in motivation_results.items()}
        assert times["occamy"] < times["vls"] < base

    def test_memory_core_performance_preserved(self, motivation_results):
        base = motivation_results["private"].core_time(0)
        for key in ("vls", "occamy"):
            ratio = motivation_results[key].core_time(0) / base
            assert ratio < 1.15  # within ~15% of Private (paper: ~1.0)

    def test_occamy_best_utilization(self, motivation_results):
        utils = {
            k: r.metrics.simd_utilization() for k, r in motivation_results.items()
        }
        assert utils["occamy"] == max(utils.values())
        assert utils["occamy"] > utils["private"] * 1.2

    def test_elastic_plan_replays_fig8(self, motivation_results):
        # 8 -> 12 lanes for WL#0; 24 -> 20 -> 32 for WL#1.
        history = motivation_results["occamy"].lane_manager.plan_history
        core0_plans = [plan[0] for _, plan in history if plan.get(0)]
        core1_plans = [plan[1] for _, plan in history if plan.get(1)]
        assert core0_plans[:2] == [8, 12] or core0_plans[:3] == [8, 8, 12]
        assert 24 in core1_plans and 32 in core1_plans

    def test_fts_renaming_stalls_dominate(self, motivation_results):
        # Fig. 13: FTS stalls waiting for registers; spatial policies don't.
        fts = motivation_results["fts"].metrics
        assert fts.stall_fraction(0, StallReason.RENAME) > 0.3
        for key in ("private", "vls", "occamy"):
            metrics = motivation_results[key].metrics
            assert metrics.stall_fraction(0, StallReason.RENAME) < 0.05

    def test_occamy_overhead_small(self, motivation_results):
        # Fig. 15: EM-SIMD support costs ~0.5% of runtime.
        metrics = motivation_results["occamy"].metrics
        for core in (0, 1):
            overhead = metrics.overhead_fraction(core)
            assert overhead["monitor"] + overhead["reconfig"] < 0.05

    def test_functional_equivalence_across_policies(self):
        config = experiment_config()
        wl0, _ = motivating_pair(0.05)
        program = compile_kernel(wl0, CompileOptions(memory=config.memory))
        for policy in ALL_POLICIES:
            result = run_policy(config, policy, [Job(program, build_image(wl0, 0)), None])
            check_answers([wl0, None], result.images, f"WL0 under {policy.key}")


class TestFourCores:
    def test_occamy_scales_to_four_cores(self, config4):
        from repro.workloads.pairs import jobs_for_group

        group = (1, 20, 16, 17)  # two memory + two compute workloads
        private = run_policy(config4, PRIVATE, jobs_for_group(group, scale=0.08))
        occamy = run_policy(config4, OCCAMY, jobs_for_group(group, scale=0.08))
        # Compute cores (2, 3) should benefit; geometric-mean speedup > 1.
        speedups = [occamy.speedup_over(private, core) for core in (2, 3)]
        assert geomean(speedups) > 1.05
        occamy.metrics  # runs completed with metrics intact
