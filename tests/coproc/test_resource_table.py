"""ResourceTbl semantics (§4.2.1/§4.2.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ProtocolError
from repro.coproc.resource_table import ResourceTable
from repro.isa.registers import AL, DECISION, OI, STATUS, VL, OIValue


@pytest.fixture
def table():
    return ResourceTable(num_cores=2, total_lanes=32)


class TestApplyVL:
    def test_grant_from_free_pool(self, table):
        assert table.apply_vl(0, 8)
        assert table.vl(0) == 8
        assert table.free_lanes == 24
        assert table.status(0) == 1

    def test_grow_and_shrink(self, table):
        table.apply_vl(0, 8)
        assert table.apply_vl(0, 12)
        assert table.free_lanes == 20
        assert table.apply_vl(0, 4)
        assert table.free_lanes == 28

    def test_release_all(self, table):
        table.apply_vl(0, 16)
        assert table.apply_vl(0, 0)
        assert table.free_lanes == 32

    def test_infeasible_request_fails_with_status_zero(self, table):
        table.apply_vl(0, 24)
        assert not table.apply_vl(1, 16)
        assert table.status(1) == 0
        assert table.vl(1) == 0
        assert table.free_lanes == 8

    def test_exact_fit_succeeds(self, table):
        table.apply_vl(0, 24)
        assert table.apply_vl(1, 8)

    def test_out_of_range_raises(self, table):
        with pytest.raises(ProtocolError):
            table.apply_vl(0, 33)
        with pytest.raises(ProtocolError):
            table.apply_vl(0, -1)

    def test_invariant_holds(self, table):
        table.apply_vl(0, 8)
        table.apply_vl(1, 20)
        table.check_invariant()

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 32)), max_size=40))
    def test_accounting_invariant(self, moves):
        table = ResourceTable(num_cores=4, total_lanes=32)
        for core, lanes in moves:
            before, free = table.vl(core), table.free_lanes
            granted = table.apply_vl(core, lanes)
            assert granted == (lanes <= before + free)
            assert table.vl(core) == (lanes if granted else before)
        assert sum(table.vl(c) for c in range(4)) + table.free_lanes == 32
        table.check_invariant()

    def test_force_vl_bypasses_accounting(self, table):
        table.force_vl(0, 32)
        table.force_vl(1, 32)
        assert table.vl(0) == table.vl(1) == 32
        assert table.free_lanes == 32  # AL untouched under temporal sharing
        with pytest.raises(ProtocolError):
            table.check_invariant()


class TestReads:
    def test_read_dispatch(self, table):
        table.set_oi(0, OIValue(0.5, 0.25))
        table.set_decision(0, 12)
        table.apply_vl(0, 8)
        assert table.read(0, OI) == OIValue(0.5, 0.25)
        assert table.read(0, DECISION) == 12
        assert table.read(0, VL) == 8
        assert table.read(0, STATUS) == 1
        assert table.read(0, AL) == 24

    def test_running_phases(self, table):
        table.set_oi(0, OIValue(0.5, 0.25))
        table.set_oi(1, OIValue.ZERO)
        assert table.running_phases() == {0: OIValue(0.5, 0.25)}

    def test_unknown_core(self, table):
        with pytest.raises(ProtocolError):
            table.vl(7)

    def test_decision_range_checked(self, table):
        with pytest.raises(ProtocolError):
            table.set_decision(0, 64)
