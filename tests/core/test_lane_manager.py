"""The three lane-manager variants behind the four policies."""

from repro.common.config import table4_config
from repro.coproc.resource_table import ResourceTable
from repro.core.lane_manager import (
    ElasticLaneManager,
    StaticLaneManager,
    TemporalLaneManager,
)
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue


def table_with_phases(**ois):
    table = ResourceTable(num_cores=2, total_lanes=32)
    for core, oi in ois.items():
        table.set_oi(int(core[-1]), oi)
    return table


class TestElastic:
    def manager(self):
        return ElasticLaneManager(RooflineModel.from_config(table4_config()), 32)

    def test_plans_follow_running_phases(self):
        manager = self.manager()
        table = table_with_phases(
            core0=OIValue.uniform(0.083), core1=OIValue(0.6, 1.0, level="vec_cache")
        )
        decisions = manager.on_phase_change(table, cycle=100)
        assert decisions == {0: 8, 1: 24}

    def test_idle_core_decided_to_zero(self):
        manager = self.manager()
        table = table_with_phases(core1=OIValue(0.6, 1.0, level="vec_cache"))
        decisions = manager.on_phase_change(table, cycle=0)
        assert decisions == {0: 0, 1: 32}

    def test_history_recorded(self):
        manager = self.manager()
        table = table_with_phases(core0=OIValue.uniform(0.25))
        manager.on_phase_change(table, cycle=5)
        manager.on_phase_change(table, cycle=9)
        assert len(manager.plan_history) == 2
        assert manager.plan_history[0][0] == 5


class TestStatic:
    def test_constant_decisions(self):
        manager = StaticLaneManager({0: 12, 1: 20})
        table = table_with_phases(core0=OIValue.uniform(0.25))
        assert manager.on_phase_change(table, 0) == {0: 12, 1: 20}
        table.set_oi(0, OIValue.ZERO)
        assert manager.on_phase_change(table, 9) == {0: 12, 1: 20}

    def test_missing_core_defaults_to_zero(self):
        manager = StaticLaneManager({0: 16})
        table = table_with_phases()
        assert manager.on_phase_change(table, 0) == {0: 16, 1: 0}


class TestTemporal:
    def test_full_width_for_everyone(self):
        manager = TemporalLaneManager(32)
        table = table_with_phases(core0=OIValue.uniform(0.25))
        assert manager.on_phase_change(table, 0) == {0: 32, 1: 32}
