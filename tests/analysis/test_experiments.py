"""The experiment drivers (tiny scales; the benchmarks run them fully)."""

import pytest

from repro.analysis.experiments import (
    clear_sweep_cache,
    motivation_fig2,
    pair_outcome,
    run_with_fixed_lanes,
    table5_rows,
)
from repro.analysis.sensitivity import SWEEPS, sweep
from repro.common.config import experiment_config
from repro.workloads.pairs import CoRunPair
from repro.workloads.spec import spec_workload


class TestPairOutcome:
    def test_memoised_across_calls(self):
        clear_sweep_cache()
        pair = CoRunPair("spec", 20, 17)
        first = pair_outcome(pair, scale=0.05)
        second = pair_outcome(pair, scale=0.05)
        for key in first.results:
            assert first.results[key] is second.results[key]
        clear_sweep_cache()
        third = pair_outcome(pair, scale=0.05)
        assert third.results["private"] is not first.results["private"]

    def test_an_equal_policy_tuple_and_a_pool_give_the_default_results(self):
        """``policies`` is compared by value and ``jobs`` only fans out:
        neither selects another code path."""
        from repro.core.policies import ALL_POLICIES
        from tests.conftest import run_fingerprint

        pair = CoRunPair("spec", 20, 17)
        default = pair_outcome(pair, scale=0.05)
        clear_sweep_cache()
        pooled = pair_outcome(pair, scale=0.05, policies=tuple(ALL_POLICIES), jobs=2)
        assert list(pooled.results) == list(default.results)
        for key, result in default.results.items():
            assert run_fingerprint(pooled.results[key]) == run_fingerprint(result)

    def test_outcome_accessors(self):
        pair = CoRunPair("spec", 20, 17)
        outcome = pair_outcome(pair, scale=0.05)
        assert outcome.speedup("private", 0) == 1.0
        assert 0 <= outcome.utilization("occamy") <= 1
        assert 0 <= outcome.rename_stall_fraction("fts", 1) <= 1
        overhead = outcome.overhead(0)
        assert set(overhead) == {"monitor", "reconfig"}


class TestFixedLanes:
    @pytest.mark.parametrize("lanes", [4, 16, 32])
    def test_allocation_pinned(self, lanes):
        kernel = spec_workload(17, scale=0.05)
        result = run_with_fixed_lanes(kernel, lanes)
        values = {v for _, v in result.metrics.lane_timeline[0].points if v}
        assert values == {lanes}

    def test_more_lanes_never_slower_for_compute(self):
        kernel = spec_workload(17, scale=0.05)
        few = run_with_fixed_lanes(kernel, 4).core_time(0)
        many = run_with_fixed_lanes(kernel, 32).core_time(0)
        assert many < few


class TestMotivationDriver:
    def test_four_policies_present(self):
        result = motivation_fig2(scale=0.05)
        assert set(result.results) == {"private", "fts", "vls", "occamy"}
        assert result.speedup("private", 1) == 1.0
        assert result.issue_rates("occamy", 0)


class TestTable5Driver:
    def test_row_structure(self):
        rows = table5_rows(experiment_config(), lane_choices=(4, 12))
        assert [row["vl"] for row in rows] == [4, 12]
        assert rows[1]["performance"] == pytest.approx(16.0, abs=0.1)


class TestSensitivity:
    def test_single_point_sweep(self):
        points = sweep("total_lanes", values=(32,), scale=0.05)
        assert len(points) == 1
        point = points[0]
        assert point.parameter == "total_lanes"
        assert point.compute_speedup > 0
        assert point.private_cycles > 0

    def test_known_parameters(self):
        assert set(SWEEPS) == {
            "total_lanes",
            "dram_bytes_per_cycle",
            "instruction_pool_entries",
        }

    def test_unknown_parameter(self):
        with pytest.raises(KeyError):
            sweep("nonsense")
