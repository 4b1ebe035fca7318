"""The Fig. 12 analytical area model."""

import pytest

from repro.analysis.area import AreaBreakdown, area_model
from repro.common.config import experiment_config, table4_config


class TestTwoCoreBreakdown:
    def test_total_close_to_paper(self):
        # Paper: 1.263 mm² for Private/FTS/VLS, 1.265 mm² for Occamy.
        for key in ("private", "fts", "vls"):
            assert area_model(table4_config(), key).total == pytest.approx(1.263, abs=0.002)
        assert area_model(table4_config(), "occamy").total == pytest.approx(1.265, abs=0.002)

    def test_component_shares(self):
        breakdown = area_model(table4_config(), "occamy")
        assert breakdown.fraction("simd_exe_units") == pytest.approx(0.46, abs=0.02)
        assert breakdown.fraction("lsu") == pytest.approx(0.23, abs=0.02)
        assert breakdown.fraction("register_file") == pytest.approx(0.15, abs=0.02)

    def test_manager_below_one_percent(self):
        breakdown = area_model(table4_config(), "occamy")
        assert 0 < breakdown.fraction("manager") < 0.01

    def test_manager_absent_in_private_and_fts(self):
        assert "manager" not in area_model(table4_config(), "private").components
        assert "manager" not in area_model(table4_config(), "fts").components
        assert "manager" not in area_model(table4_config(), "vls").components


class TestScaling:
    def test_four_core_fts_costs_33_percent_more(self):
        config = table4_config(num_cores=4)
        fts = area_model(config, "fts").total
        others = area_model(config, "private").total
        assert fts / others - 1 == pytest.approx(0.335, abs=0.005)

    def test_control_logic_scales_modestly(self):
        # §4.2.1: tables/pipelines add ~3% when going from 2 to 4 cores.
        two = area_model(table4_config(2), "occamy")
        four = area_model(table4_config(4), "occamy")
        control = ("inst_pool", "decode", "rename", "dispatch", "rob")
        two_control = sum(two.components[c] for c in control)
        four_control = sum(four.components[c] for c in control)
        assert four_control / (2 * two_control) == pytest.approx(1.03, abs=0.01)

    def test_lanes_drive_exe_area(self):
        two = area_model(table4_config(2), "private")
        four = area_model(table4_config(4), "private")
        ratio = four.components["simd_exe_units"] / two.components["simd_exe_units"]
        assert ratio == pytest.approx(2.0)

    def test_rows_sorted_descending(self):
        rows = area_model(table4_config(), "occamy").rows()
        values = list(rows.values())
        assert values == sorted(values, reverse=True)
