"""Ablation lane-manager variants."""

import pytest

from repro.common.config import experiment_config
from repro.coproc.resource_table import ResourceTable
from repro.core.ablations import (
    EQUAL_SPLIT,
    FLAT_MEMORY,
    NO_ISSUE_CEILING,
    EqualSplitLaneManager,
)
from repro.core.policies import policy
from repro.isa.registers import OIValue


def table_with(**ois):
    table = ResourceTable(num_cores=2, total_lanes=32)
    for name, oi in ois.items():
        table.set_oi(int(name[-1]), oi)
    return table


class TestEqualSplit:
    def test_even_division(self):
        manager = EqualSplitLaneManager(32)
        table = table_with(core0=OIValue.uniform(0.1), core1=OIValue.uniform(1.0))
        assert manager.on_phase_change(table, 0) == {0: 16, 1: 16}

    def test_remainder_spread(self):
        manager = EqualSplitLaneManager(32)
        table = ResourceTable(num_cores=3, total_lanes=32)
        for core in range(3):
            table.set_oi(core, OIValue.uniform(0.5))
        decisions = manager.on_phase_change(table, 0)
        assert sorted(decisions.values(), reverse=True) == [11, 11, 10]
        assert sum(decisions.values()) == 32

    def test_solo_gets_everything(self):
        manager = EqualSplitLaneManager(32)
        table = table_with(core1=OIValue.uniform(0.1))
        assert manager.on_phase_change(table, 0) == {0: 0, 1: 32}


class TestRooflineVariants:
    def test_flat_memory_ignores_residency(self):
        config = experiment_config()
        manager = FLAT_MEMORY.build_lane_manager(config, {})
        resident = OIValue(0.56, 0.56, level="vec_cache")
        # Under the flat roofline, a 0.56-intensity phase saturates at
        # 32 * 0.56 ~ 18 lanes even though it is cache-resident.
        assert manager.roofline.saturation_lanes(resident) < 24

    def test_no_issue_ceiling_under_allocates_memory_phases(self):
        config = experiment_config()
        full = policy("no-issue-ceiling").build_lane_manager(config, {})
        streaming = OIValue.uniform(0.083)
        # Without Eq. 2 the memory phase saturates where FP peak meets the
        # memory ceiling: ~3 lanes instead of 8.
        assert full.roofline.saturation_lanes(streaming) < 5

    def test_registry(self):
        """A task names a variant by key, like any other policy."""
        assert policy("equal-split") is EQUAL_SPLIT
        assert policy("flat-memory") is FLAT_MEMORY
        assert policy("no-issue-ceiling") is NO_ISSUE_CEILING
        with pytest.raises(KeyError, match="equal-split"):
            policy("nope")
