"""ECM cycle predictor: decomposition invariants."""

import pytest

from repro.analysis.ecm import (
    TEMPORAL_POLICIES,
    EcmModel,
    lane_sweep,
    predict_workload,
)
from repro.common.config import experiment_config
from repro.common.errors import ConfigurationError
from repro.compiler.phase_analysis import analyze_kernel
from repro.workloads.spec import spec_workload

LANES = (1, 2, 4, 8, 16, 32)


@pytest.fixture(scope="module")
def compute_kernel():
    # wsm52: compute-intensive, Vec-Cache resident.
    return spec_workload(17, scale=0.05)


@pytest.fixture(scope="module")
def memory_kernel():
    # sff2: streaming, DRAM-bound at scale.
    return spec_workload(20, scale=0.05)


@pytest.fixture(scope="module")
def reuse_kernel():
    # rho_eos2: enough arithmetic per element that the core binds at one
    # lane, with a DRAM-resident footprint that binds once lanes widen.
    return spec_workload(19, scale=0.05)


@pytest.fixture(scope="module")
def model():
    return EcmModel(experiment_config())


# --- decomposition invariants -------------------------------------------------


class TestConventions:
    def test_overlap_never_exceeds_nonoverlap(self, compute_kernel, memory_kernel):
        """The optimistic convention must lower-bound the pessimistic one,
        per phase and per workload, under every policy."""
        for kernel in (compute_kernel, memory_kernel):
            for policy in ("private", "fts", "vls", "occamy", "cts"):
                prediction = predict_workload(kernel, policy)
                assert prediction.cycles <= prediction.cycles_nonoverlap
                for phase in prediction.phases:
                    assert phase.chunk_cycles <= phase.chunk_cycles_nonoverlap
                    # overlap = max of the terms it composes
                    assert phase.chunk_cycles == pytest.approx(
                        max(phase.t_core, phase.t_l1, phase.t_l2, phase.t_mem)
                    )
                    # non-overlap = their sum
                    assert phase.chunk_cycles_nonoverlap == pytest.approx(
                        phase.t_core + phase.t_data
                    )

    def test_bottleneck_names_the_max_term(self, memory_kernel, model):
        info = analyze_kernel(memory_kernel)[0]
        phase = model.phase_prediction(info, lanes=32)
        terms = {
            "core": phase.t_core,
            "l1": phase.t_l1,
            "l2": phase.t_l2,
            "mem": phase.t_mem,
        }
        assert terms[phase.bottleneck] == max(terms.values())

    def test_ipc_cpi_are_reciprocal(self, compute_kernel):
        prediction = predict_workload(compute_kernel, "occamy")
        assert prediction.ipc * prediction.cpi == pytest.approx(1.0)
        assert prediction.uops > 0


class TestLaneScaling:
    def test_ceiling_crossover(self, reuse_kernel):
        """A DRAM-resident phase with real arithmetic is core-bound at 1
        lane and bandwidth-bound once lanes widen (transfer terms grow
        with the chunk, in-core time does not): the binding ECM term must
        cross from in-core to a transfer ceiling."""
        sweep = lane_sweep(reuse_kernel, LANES)
        assert sweep[0].bottleneck == "core"
        assert sweep[-1].bottleneck in ("l2", "mem")
        # And the crossover is monotone: once a transfer link binds,
        # adding lanes never hands the bottleneck back to the core.
        crossed = False
        for point in sweep:
            if point.bottleneck != "core":
                crossed = True
            elif crossed:
                pytest.fail("bottleneck reverted to core after crossover")

    def test_lane_monotonicity(self, compute_kernel, memory_kernel):
        """More lanes never predict more cycles (strip-mining rounding
        aside): transfers scale with elements, not lanes, and in-core
        time is per-chunk."""
        for kernel in (compute_kernel, memory_kernel):
            sweep = lane_sweep(kernel, LANES)
            cycles = [point.cycles for point in sweep]
            for narrow, wide in zip(cycles, cycles[1:]):
                assert wide <= narrow * 1.01

    def test_compute_phase_keeps_scaling(self, compute_kernel, memory_kernel):
        """The Vec-Cache-resident phase gains from 16 -> 32 lanes; the
        DRAM-bound one has flattened into its bandwidth ceiling."""
        compute = {p.lanes: p.cycles for p in lane_sweep(compute_kernel, (16, 32))}
        memory = {p.lanes: p.cycles for p in lane_sweep(memory_kernel, (16, 32))}
        assert compute[32] < 0.75 * compute[16]
        assert memory[32] > 0.9 * memory[16]


class TestLaneAllocation:
    def test_temporal_policies_get_the_full_pool(self, compute_kernel, model):
        info = analyze_kernel(compute_kernel)[0]
        total = model.config.vector.total_lanes
        for policy in TEMPORAL_POLICIES:
            assert model.lanes_for(policy, info) == total

    def test_private_keeps_its_static_share(self, compute_kernel, model):
        info = analyze_kernel(compute_kernel)[0]
        assert model.lanes_for("private", info) == model.config.lanes_per_core_private

    def test_elastic_policies_stop_at_saturation(self, memory_kernel, model):
        """occamy grants a streaming phase only up to its roofline knee —
        strictly fewer lanes than the pool."""
        info = analyze_kernel(memory_kernel)[0]
        lanes = model.lanes_for("occamy", info)
        assert 1 <= lanes < model.config.vector.total_lanes

    def test_max_lanes_caps_spatial_grants(self, compute_kernel, model):
        info = analyze_kernel(compute_kernel)[0]
        assert model.lanes_for("occamy", info, max_lanes=4) <= 4

    def test_zero_lanes_rejected(self, compute_kernel, model):
        info = analyze_kernel(compute_kernel)[0]
        with pytest.raises(ConfigurationError):
            model.phase_prediction(info, lanes=0)


class TestBandwidthShare:
    def test_share_scales_the_deep_links_only(self, memory_kernel):
        solo = EcmModel(bandwidth_share=1.0)
        shared = EcmModel(bandwidth_share=0.5)
        info = analyze_kernel(memory_kernel)[0]
        a = solo.phase_prediction(info, lanes=8)
        b = shared.phase_prediction(info, lanes=8)
        assert b.t_mem == pytest.approx(2 * a.t_mem)
        assert b.t_l2 == pytest.approx(2 * a.t_l2)
        # The Vec-Cache port is per-RegBlk: never shared.
        assert b.t_l1 == pytest.approx(a.t_l1)
        assert b.t_core == pytest.approx(a.t_core)

    @pytest.mark.parametrize("share", [0.0, -0.5, 1.5])
    def test_invalid_share_rejected(self, share):
        with pytest.raises(ConfigurationError):
            EcmModel(bandwidth_share=share)
