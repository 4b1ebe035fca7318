"""BucketSeries and Timeline behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.common.timeline import BucketSeries, Timeline


class TestBucketSeries:
    def test_bucket_assignment(self):
        series = BucketSeries(bucket_cycles=10)
        series.add(0, 1.0)
        series.add(9, 3.0)
        series.add(10, 5.0)
        assert series.averages() == [2.0, 5.0]
        assert series.totals() == [4.0, 5.0]

    def test_empty_buckets_average_zero(self):
        series = BucketSeries(bucket_cycles=10)
        series.add(25, 4.0)
        assert series.averages() == [0.0, 0.0, 4.0]

    def test_iteration_yields_bucket_starts(self):
        series = BucketSeries(bucket_cycles=100)
        series.add(150, 2.0)
        assert list(series) == [(0, 0.0), (100, 2.0)]

    def test_rejects_nonpositive_bucket(self):
        with pytest.raises(ValueError):
            BucketSeries(bucket_cycles=0)

    @given(st.lists(st.tuples(st.integers(0, 10_000), st.floats(0, 100)), max_size=50))
    def test_total_mass_preserved(self, samples):
        series = BucketSeries(bucket_cycles=128)
        for cycle, value in samples:
            series.add(cycle, value)
        assert sum(series.totals()) == pytest.approx(sum(v for _, v in samples))


class TestTimeline:
    def test_value_at(self):
        timeline = Timeline()
        timeline.record(10, 8)
        timeline.record(20, 12)
        assert timeline.value_at(5) == 0
        assert timeline.value_at(10) == 8
        assert timeline.value_at(19) == 8
        assert timeline.value_at(25) == 12

    def test_same_cycle_overwrites(self):
        timeline = Timeline()
        timeline.record(10, 8)
        timeline.record(10, 16)
        assert timeline.points == ((10, 16),)

    def test_duplicate_value_coalesced(self):
        timeline = Timeline()
        timeline.record(10, 8)
        timeline.record(20, 8)
        assert len(timeline) == 1

    def test_rejects_time_travel(self):
        timeline = Timeline()
        timeline.record(10, 8)
        with pytest.raises(ValueError):
            timeline.record(5, 4)
