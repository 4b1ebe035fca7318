"""Table 3 workloads: composition and operational-intensity fidelity."""

import pytest

from repro.compiler.phase_analysis import analyze_kernel
from repro.compiler.vectorizer import vectorize_loop
from repro.workloads.opencv import OPENCV_KERNELS, OPENCV_WORKLOADS, opencv_workload
from repro.workloads.pairs import (
    FOUR_CORE_GROUPS,
    OPENCV_PAIRS,
    SPEC_PAIRS,
    all_pairs,
)
from repro.workloads.spec import SPEC_PHASES, SPEC_WORKLOADS, spec_workload

#: Relative tolerance for matching the paper's reported oi_mem.
OI_TOLERANCE = 0.16


class TestComposition:
    def test_22_spec_workloads(self):
        assert len(SPEC_WORKLOADS) == 22

    def test_12_opencv_workloads(self):
        assert len(OPENCV_WORKLOADS) == 12

    def test_25_pairs_total(self):
        assert len(SPEC_PAIRS) == 16
        assert len(OPENCV_PAIRS) == 9
        assert len(all_pairs()) == 25

    def test_four_groups_of_four(self):
        assert len(FOUR_CORE_GROUPS) == 4
        assert all(len(group) == 4 for group in FOUR_CORE_GROUPS)

    def test_pairs_reference_defined_workloads(self):
        for pair in all_pairs():
            table = SPEC_WORKLOADS if pair.suite == "spec" else OPENCV_WORKLOADS
            assert pair.core0 in table
            assert pair.core1 in table


@pytest.mark.parametrize("workload_id", sorted(SPEC_WORKLOADS))
def test_spec_oi_matches_table3(workload_id):
    kernel = spec_workload(workload_id, scale=0.05)
    infos = analyze_kernel(kernel)
    for info, phase_name in zip(infos, SPEC_WORKLOADS[workload_id]):
        target = SPEC_PHASES[phase_name].oi_mem
        assert info.oi.mem == pytest.approx(target, rel=OI_TOLERANCE), phase_name


@pytest.mark.parametrize("workload_id", sorted(OPENCV_WORKLOADS))
def test_opencv_oi_matches_table3(workload_id):
    kernel = opencv_workload(workload_id, scale=0.05)
    infos = analyze_kernel(kernel)
    for info, phase_name in zip(infos, OPENCV_WORKLOADS[workload_id]):
        target = OPENCV_KERNELS[phase_name].oi_mem
        assert info.oi.mem == pytest.approx(target, rel=OI_TOLERANCE), phase_name


class TestSpecialCases:
    def test_rho_eos2_has_case4_data_reuse(self):
        kernel = spec_workload(19, scale=0.05)
        oi = analyze_kernel(kernel)[0].oi
        assert oi.issue == pytest.approx(1 / 6, rel=0.05)
        assert oi.mem == pytest.approx(0.25, rel=0.05)

    def test_wsm5_has_stencil_reuse(self):
        kernel = spec_workload(16, scale=0.05)
        oi = analyze_kernel(kernel)[0].oi
        assert oi.mem == pytest.approx(1.0, rel=0.05)
        assert oi.issue < oi.mem

    def test_every_phase_vectorizes(self):
        for workload_id in SPEC_WORKLOADS:
            for loop in spec_workload(workload_id, scale=0.05).loops:
                vectorize_loop(loop)
        for workload_id in OPENCV_WORKLOADS:
            for loop in opencv_workload(workload_id, scale=0.05).loops:
                vectorize_loop(loop)

    def test_memory_workloads_stream(self):
        # WL1 is a <memory> workload: both phases must exceed the L2.
        kernel = spec_workload(1, scale=0.05)
        for info in analyze_kernel(kernel):
            assert info.total_footprint_bytes > 128 * 1024

    def test_compute_workloads_resident(self):
        # WL16 (wsm51) fits the scaled Vec Cache.
        kernel = spec_workload(16, scale=0.05)
        assert analyze_kernel(kernel)[0].total_footprint_bytes <= 32 * 1024
