"""EM-SIMD dedicated registers and OI values (Table 1)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.isa.registers import (
    AL,
    DECISION,
    MEMORY_LEVELS,
    OI,
    STATUS,
    VL,
    OIValue,
    SystemRegister,
)


class TestSystemRegisters:
    def test_five_dedicated_registers(self):
        assert len(SystemRegister) == 5

    def test_aliases(self):
        assert OI is SystemRegister.OI
        assert DECISION is SystemRegister.DECISION
        assert VL is SystemRegister.VL
        assert STATUS is SystemRegister.STATUS
        assert AL is SystemRegister.AL

    def test_str_matches_paper_notation(self):
        assert str(SystemRegister.VL) == "<VL>"
        assert str(SystemRegister.DECISION) == "<decision>"


class TestOIValue:
    def test_phase_end_sentinel(self):
        assert OIValue.ZERO.is_phase_end
        assert not OIValue(0.5, 0.25).is_phase_end

    def test_uniform_no_reuse(self):
        oi = OIValue.uniform(0.25)
        assert oi.issue == oi.mem == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OIValue(-0.1, 0.2)

    @pytest.mark.parametrize("pair", [(float("nan"), 0.2), (0.2, float("nan"))])
    def test_nan_rejected(self, pair):
        with pytest.raises(ValueError, match="non-negative"):
            OIValue(*pair)

    def test_infinite_accepted(self):
        assert OIValue(float("inf"), 0.25).issue == float("inf")

    def test_default_level_is_dram(self):
        assert OIValue(0.5, 0.25).level == "dram"

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigurationError):
            OIValue(0.5, 0.25, level="l3")

    def test_every_documented_level_accepted(self):
        for level in MEMORY_LEVELS:
            assert OIValue(0.5, 0.25, level=level).level == level

    def test_str(self):
        assert str(OIValue(0.5, 0.25)) == "(0.5,0.25)"

    def test_immutability(self):
        oi = OIValue(0.5, 0.25)
        with pytest.raises(AttributeError):
            oi.issue = 1.0
