"""Policy registry and the metrics layer."""

import pytest

from repro import ALL_POLICIES, FTS, OCCAMY, PRIVATE, VLS, policy
from repro.common.config import experiment_config
from repro.coproc.coprocessor import SharingMode
from repro.coproc.metrics import Metrics, PhaseRecord, StallReason
from repro.core.lane_manager import (
    ElasticLaneManager,
    StaticLaneManager,
    TemporalLaneManager,
)
from repro.isa.registers import OIValue


class TestPolicyRegistry:
    def test_four_policies_in_paper_order(self):
        assert [p.key for p in ALL_POLICIES] == ["private", "fts", "vls", "occamy"]

    def test_lookup(self):
        assert policy("occamy") is OCCAMY
        with pytest.raises(KeyError):
            policy("bogus")

    def test_modes(self):
        assert FTS.mode is SharingMode.TEMPORAL
        for p in (PRIVATE, VLS, OCCAMY):
            assert p.mode is SharingMode.SPATIAL

    def test_manager_types(self):
        config = experiment_config()
        ois = {0: [OIValue.uniform(0.25)], 1: [OIValue.uniform(1.0)]}
        assert isinstance(PRIVATE.build_lane_manager(config, ois), StaticLaneManager)
        assert isinstance(FTS.build_lane_manager(config, ois), TemporalLaneManager)
        assert isinstance(VLS.build_lane_manager(config, ois), StaticLaneManager)
        assert isinstance(OCCAMY.build_lane_manager(config, ois), ElasticLaneManager)

    def test_private_manager_splits_evenly(self):
        config = experiment_config()
        manager = PRIVATE.build_lane_manager(config, {})
        assert manager.plan == {0: 16, 1: 16}

    def test_vls_manager_uses_static_plan(self):
        config = experiment_config()
        ois = {
            0: [OIValue.uniform(0.083), OIValue.uniform(0.375)],
            1: [OIValue(0.6, 1.0, level="vec_cache")],
        }
        manager = VLS.build_lane_manager(config, ois)
        assert manager.plan == {0: 12, 1: 20}


class TestMetrics:
    def metrics(self):
        return Metrics(num_cores=2, total_lanes=32, pipes_per_lane=2)

    def test_utilization_formula(self):
        m = self.metrics()
        # 2 uops/cycle at 16 lanes for 100 cycles on one core.
        for cycle in range(100):
            m.on_compute_dispatch_batch(0, [16, 16], total_flops=32, cycle=cycle)
        m.close(100)
        assert m.simd_utilization() == pytest.approx(0.5)

    def test_utilization_capped_at_one(self):
        m = self.metrics()
        for _ in range(10):
            m.on_compute_dispatch_batch(0, [32], 0, 0)
        m.close(1)
        assert m.simd_utilization() <= 1.0

    def test_phase_tracking(self):
        m = self.metrics()
        oi = OIValue.uniform(0.25)
        m.on_phase_marker(0, oi, cycle=10, vl=8)
        m.on_compute_dispatch_batch(0, [8], 8, 20)
        m.on_phase_marker(0, OIValue.ZERO, cycle=110, vl=8)
        phase = m.phases_of(0)[0]
        assert phase.duration == 100
        assert phase.compute_uops == 1
        assert phase.issue_rate == pytest.approx(0.01)

    def test_unclosed_phase_closed_at_end(self):
        m = self.metrics()
        m.on_phase_marker(1, OIValue.uniform(1.0), cycle=0, vl=16)
        m.close(500)
        assert m.phases_of(1)[0].end_cycle == 500

    def test_stall_fractions(self):
        m = self.metrics()
        for cycle in range(50):
            m.on_stall(0, StallReason.RENAME, cycle)
        m.on_core_done(0, 100)
        m.close(200)
        assert m.stall_fraction(0, StallReason.RENAME) == pytest.approx(0.5)

    def test_core_done_freezes_time_and_lanes(self):
        m = self.metrics()
        m.on_lane_change(0, 16, 0)
        m.on_core_done(0, 42)
        m.close(100)
        assert m.core_cycles(0) == 42
        assert m.lane_timeline[0].value_at(50) == 0

    def test_overhead_fractions(self):
        m = self.metrics()
        for _ in range(3):
            m.on_overhead_cycle(0, "monitor")
        m.on_overhead_cycle(0, "reconfig")
        m.on_core_done(0, 100)
        m.close(100)
        overhead = m.overhead_fraction(0)
        assert overhead["monitor"] == pytest.approx(0.03)
        assert overhead["reconfig"] == pytest.approx(0.01)

    def test_reconfig_counters(self):
        m = self.metrics()
        m.on_reconfig(0, success=True)
        m.on_reconfig(0, success=False)
        assert m.reconfig_success[0] == 1
        assert m.reconfig_failed[0] == 1
