"""PhaseValidation statistics."""

import pytest

from repro.analysis.validation import (
    EcmValidation,
    PhaseValidation,
    ValidationPoint,
    validate_phase,
)
from repro.workloads.spec import spec_workload


def points(pairs):
    return [
        ValidationPoint(lanes=l, predicted=p, achieved=a, phase_cycles=100)
        for l, p, a in pairs
    ]


def validation(pairs):
    return PhaseValidation(
        kernel_name="t", phase_index=0, oi_issue=0.5, oi_mem=0.5,
        level="dram", points=points(pairs),
    )


class TestStatistics:
    def test_perfect_agreement(self):
        v = validation([(2, 1, 1), (4, 2, 2), (8, 4, 4)])
        assert v.ordering_agreement == 1.0

    def test_total_disagreement(self):
        v = validation([(2, 1, 4), (4, 2, 2), (8, 4, 1)])
        assert v.ordering_agreement < 0.5

    def test_ties_count_as_agreement(self):
        v = validation([(2, 4, 1.0), (4, 4, 1.2)])
        assert v.ordering_agreement == 1.0

    def test_predicted_knee(self):
        v = validation([(2, 1, 1), (4, 2, 2), (8, 4, 4), (16, 4, 4.1)])
        assert v.predicted_knee == 8

    def test_measured_knee_uses_90_percent(self):
        v = validation([(2, 1, 1), (4, 2, 9.5), (8, 4, 10)])
        assert v.measured_knee == 4

    def test_an_empty_ecm_sweep_has_no_worst_error(self):
        """The ECM fidelity rows cannot pass on a sweep that measured nothing."""
        with pytest.raises(ValueError):
            EcmValidation(points=[], scale=0.1).max_error


class TestEndToEnd:
    def test_validate_phase_smoke(self):
        v = validate_phase(
            spec_workload(17, scale=0.05), lane_choices=(8, 32)
        )
        assert len(v.points) == 2
        assert v.points[1].achieved > v.points[0].achieved
        assert v.level == "vec_cache"
