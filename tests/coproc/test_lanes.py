"""ExeBU ownership tables (Dispatch.Cfg / RegFile.Cfg)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ProtocolError
from repro.coproc.lanes import LaneTable


class TestReconfigure:
    def test_initial_all_free(self):
        table = LaneTable(32)
        assert table.free_count == 32
        assert table.lanes_of(0) == []

    def test_assign_and_count(self):
        table = LaneTable(32)
        table.reconfigure(0, 8)
        assert table.owned_count(0) == 8
        assert table.free_count == 24

    def test_reassign_frees_previous(self):
        table = LaneTable(32)
        table.reconfigure(0, 8)
        table.reconfigure(0, 12)
        assert table.owned_count(0) == 12
        assert table.free_count == 20
        assert table.reconfigurations == 2

    def test_two_cores_disjoint(self):
        table = LaneTable(32)
        table.reconfigure(0, 12)
        table.reconfigure(1, 20)
        owned0 = set(table.lanes_of(0))
        owned1 = set(table.lanes_of(1))
        assert not owned0 & owned1
        assert table.free_count == 0

    def test_release_all(self):
        table = LaneTable(32)
        table.reconfigure(0, 16)
        table.reconfigure(0, 0)
        assert table.free_count == 32

    def test_overflow_rejected(self):
        table = LaneTable(32)
        table.reconfigure(0, 24)
        with pytest.raises(ProtocolError):
            table.reconfigure(1, 16)

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            LaneTable(32).reconfigure(0, -1)

    def test_ownership_vector(self):
        table = LaneTable(4)
        table.reconfigure(1, 2)
        assert table.ownership_vector() == (1, 1, None, None)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 8)), max_size=40))
    def test_accounting_invariant(self, moves):
        table = LaneTable(32)
        for core, lanes in moves:
            current = table.owned_count(core)
            if lanes <= table.free_count + current:
                table.reconfigure(core, lanes)
        total_owned = sum(table.owned_count(c) for c in range(4))
        assert total_owned + table.free_count == 32


class TestIncrementalIndexes:
    """The O(1) free/owned indexes must always agree with a full scan."""

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 32)), max_size=60))
    def test_indexes_match_scan(self, moves):
        table = LaneTable(32)
        for core, lanes in moves:
            if lanes > table.free_count + table.owned_count(core):
                with pytest.raises(ProtocolError):
                    table.reconfigure(core, lanes)
            else:
                table.reconfigure(core, lanes)
            vector = table.ownership_vector()
            scan_free = [i for i, owner in enumerate(vector) if owner is None]
            assert sorted(table._free) == table._free
            assert table._free == scan_free
            assert table.free_count == len(scan_free)
            for c in range(4):
                scan_owned = [i for i, owner in enumerate(vector) if owner == c]
                assert table.lanes_of(c) == scan_owned
                assert table.owned_count(c) == len(scan_owned)

    def test_failed_reconfigure_still_releases(self):
        """An over-asking core loses its lanes before the request is refused
        (matching the §4.2.2 free-then-claim order)."""
        table = LaneTable(8)
        table.reconfigure(0, 4)
        table.reconfigure(1, 4)
        with pytest.raises(ProtocolError):
            table.reconfigure(0, 6)
        assert table.owned_count(0) == 0
        assert table.free_count == 4
        assert table.lanes_of(1) == [4, 5, 6, 7]

    def test_claims_lowest_indices(self):
        table = LaneTable(8)
        table.reconfigure(0, 3)
        table.reconfigure(1, 3)
        table.reconfigure(0, 0)
        table.reconfigure(2, 2)
        assert table.lanes_of(2) == [0, 1]

