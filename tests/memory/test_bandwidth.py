"""Bandwidth regulator: serialisation and queuing."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.bandwidth import BandwidthRegulator


class TestServe:
    def test_throughput(self):
        bw = BandwidthRegulator("t", 32)
        assert bw.serve(64, 0) == pytest.approx(2.0)

    def test_back_to_back_requests_queue(self):
        bw = BandwidthRegulator("t", 32)
        first = bw.serve(64, 0)
        second = bw.serve(64, 0)
        assert second == pytest.approx(first + 2.0)

    def test_idle_gap_not_reclaimed(self):
        bw = BandwidthRegulator("t", 32)
        bw.serve(32, 0)
        assert bw.serve(32, 100) == pytest.approx(101.0)

    def test_zero_bytes_free(self):
        bw = BandwidthRegulator("t", 32)
        assert bw.serve(0, 5) == 5

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            BandwidthRegulator("t", 0)

    @given(st.lists(st.integers(1, 512), min_size=1, max_size=50))
    def test_total_time_is_sum_of_bytes(self, sizes):
        bw = BandwidthRegulator("t", 16)
        finish = 0.0
        for size in sizes:
            finish = bw.serve(size, 0)
        assert finish == pytest.approx(sum(sizes) / 16)
