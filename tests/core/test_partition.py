"""Greedy lane partitioning (§5.2) and its fairness properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import table4_config
from repro.common.errors import ConfigurationError
from repro.core.partition import greedy_partition, static_partition
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue

ROOFLINE = RooflineModel.from_config(table4_config())


class TestPaperScenarios:
    def test_motivating_phase1_plan(self):
        # Fig. 8: WL#0.p1 (oi ~0.083) gets 8 lanes, WL#1 (wsm5) gets 24.
        plan = greedy_partition(
            {0: OIValue.uniform(0.083), 1: OIValue(0.6, 1.0, level="vec_cache")},
            32,
            ROOFLINE,
        )
        assert plan == {0: 8, 1: 24}

    def test_motivating_phase2_plan(self):
        # Fig. 8: WL#0.p2 (oi 0.375) gets 12 lanes, WL#1 gets 20.
        plan = greedy_partition(
            {0: OIValue.uniform(0.375), 1: OIValue(0.6, 1.0, level="vec_cache")},
            32,
            ROOFLINE,
        )
        assert plan == {0: 12, 1: 20}

    def test_solo_workload_gets_everything_it_can_use(self):
        plan = greedy_partition({1: OIValue(0.6, 1.0, level="vec_cache")}, 32, ROOFLINE)
        assert plan == {1: 32}

    def test_case4_issue_bandwidth_trade(self):
        # Table 5: WL8.p1 receives 12 lanes, not the 8 that memory and
        # computation ceilings alone would suggest.
        plan = greedy_partition(
            {0: OIValue(1.0 / 6.0, 0.25), 1: OIValue(0.6, 1.0, level="vec_cache")},
            32,
            ROOFLINE,
        )
        assert plan[0] == 12


class TestFairness:
    def test_compute_pair_splits_equally(self):
        # §5.2: co-running compute-intensive workloads divide lanes equally.
        oi = OIValue(1.0, 1.5, level="vec_cache")
        plan = greedy_partition({0: oi, 1: oi}, 32, ROOFLINE)
        assert plan == {0: 16, 1: 16}

    def test_every_running_phase_gets_a_lane(self):
        demands = {core: OIValue.uniform(0.05) for core in range(4)}
        plan = greedy_partition(demands, 32, ROOFLINE)
        assert all(lanes >= 1 for lanes in plan.values())

    def test_ended_phases_excluded(self):
        plan = greedy_partition(
            {0: OIValue.ZERO, 1: OIValue.uniform(1.0)}, 32, ROOFLINE
        )
        assert 0 not in plan

    def test_empty_demands(self):
        assert greedy_partition({}, 32, ROOFLINE) == {}

    def test_more_phases_than_lanes_rejected(self):
        demands = {core: OIValue.uniform(1.0) for core in range(4)}
        with pytest.raises(ConfigurationError):
            greedy_partition(demands, 2, ROOFLINE)

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 3),
            st.builds(
                OIValue,
                st.floats(0.02, 3.0),
                st.floats(0.02, 3.0),
                st.sampled_from(["dram", "l2", "vec_cache"]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_plan_respects_eq1(self, demands):
        plan = greedy_partition(demands, 32, ROOFLINE)
        assert set(plan) == set(demands)
        assert all(lanes >= 1 for lanes in plan.values())
        assert sum(plan.values()) <= 32

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.02, 3.0), st.floats(0.02, 3.0))
    def test_deterministic(self, a, b):
        demands = {0: OIValue.uniform(a), 1: OIValue.uniform(b)}
        assert greedy_partition(demands, 32, ROOFLINE) == greedy_partition(
            demands, 32, ROOFLINE
        )


class TestTotalAllocationOptimality:
    """The greedy plan wastes no lane: pinned against brute force.

    The round-based algorithm is deliberately *fair* rather than
    throughput-optimal (equal-slope workloads split lanes instead of one
    hogging them), but it must still be optimal in *total allocation*:
    beyond the one-lane fairness minimum, every granted lane has a
    positive marginal gain (Eq. 3), and the number of such useful lanes
    matches the best any allocation could achieve.  This is exactly the
    property the grant-time gain recheck protects — a stale pre-round
    gain must never park a lane past a core's saturation point.
    """

    @staticmethod
    def _useful_lanes(plan, demands):
        # Lanes granted beyond the first whose marginal gain was positive.
        return sum(
            sum(
                1
                for lane in range(1, lanes)
                if ROOFLINE.net_gain(lane, demands[core]) > 1e-9
            )
            for core, lanes in plan.items()
        )

    @staticmethod
    def _brute_force_best(demands, total_lanes):
        import itertools

        cores = sorted(demands)
        best = -1
        for alloc in itertools.product(
            range(1, total_lanes + 1), repeat=len(cores)
        ):
            if sum(alloc) > total_lanes:
                continue
            useful = TestTotalAllocationOptimality._useful_lanes(
                dict(zip(cores, alloc)), demands
            )
            best = max(best, useful)
        return best

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 8),
        st.lists(
            st.builds(
                OIValue,
                st.floats(0.02, 3.0),
                st.floats(0.02, 3.0),
                st.sampled_from(["dram", "l2", "vec_cache"]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_no_lane_is_wasted(self, total_lanes, ois):
        assume_ok = len(ois) <= total_lanes
        if not assume_ok:
            total_lanes = len(ois)
        demands = dict(enumerate(ois))
        plan = greedy_partition(demands, total_lanes, ROOFLINE)

        # 1. Every lane past the fairness minimum earned its grant.
        for core, lanes in plan.items():
            if lanes > 1:
                assert ROOFLINE.net_gain(lanes - 1, demands[core]) > 1e-9, (
                    f"core {core} was granted lane {lanes} with no gain"
                )

        # 2. The total number of useful lanes matches brute force.
        achieved = self._useful_lanes(plan, demands)
        best = self._brute_force_best(demands, total_lanes)
        assert achieved == best, (plan, achieved, best)

    def test_motivating_plans_survive_the_recheck(self):
        # The grant-time recheck must not disturb the paper's plans.
        plan = greedy_partition(
            {0: OIValue.uniform(0.083), 1: OIValue(0.6, 1.0, level="vec_cache")},
            32,
            ROOFLINE,
        )
        assert plan == {0: 8, 1: 24}


class TestStaticPartition:
    def test_uses_most_demanding_phase(self):
        # VLS for the motivating pair: 12/20 (driven by WL#0.p2).
        plan = static_partition(
            {
                0: [OIValue.uniform(0.083), OIValue.uniform(0.375)],
                1: [OIValue(0.6, 1.0, level="vec_cache")],
            },
            32,
            ROOFLINE,
        )
        assert plan == {0: 12, 1: 20}

    def test_idle_core_excluded(self):
        plan = static_partition({0: [OIValue.uniform(0.25)], 1: []}, 32, ROOFLINE)
        assert 1 not in plan
