"""ASCII reporting helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.analysis.reporting import format_table, geomean
from repro.common.errors import ConfigurationError


class TestGeomean:
    def test_basic(self):
        assert geomean([2, 8]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_ignores_nonpositive(self):
        assert geomean([2, 8, 0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonfinite(self):
        """NaN/inf entries must not poison the mean: log(inf) and
        log(NaN) would propagate through the sum."""
        assert geomean([2, 8, float("nan"), float("inf")]) == pytest.approx(4.0)

    def test_all_skipped_is_zero_not_crash(self):
        assert geomean([0.0, -3.0, float("nan")]) == 0.0

    def test_named_series_raises_on_bad_values(self):
        """With ``series`` set, a skippable value is treated as corrupt
        input and the error names the series and the offenders."""
        with pytest.raises(ConfigurationError, match=r"utilization.*-2"):
            geomean([1.0, -2.0], series="utilization")
        with pytest.raises(ConfigurationError, match="speedups"):
            geomean([3.0, float("nan")], series="speedups")

    def test_named_series_passes_clean_values(self):
        assert geomean([2, 8], series="clean") == pytest.approx(4.0)

    @given(st.lists(st.floats(0.1, 10), min_size=1, max_size=20))
    def test_between_min_and_max(self, values):
        gm = geomean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestFormatting:
    def test_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1
