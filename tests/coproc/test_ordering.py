"""Instruction-ordering rules of Table 2, observed through whole-machine
behaviour (the co-processor engine is exercised via real programs)."""

import pytest

from repro import (
    Job,
    OCCAMY,
    PRIVATE,
    build_image,
    compile_kernel,
    experiment_config,
    run_policy,
)
from repro.compiler.reference import check_answers
from repro.compiler.ir import Assign, BinOp, Kernel, Load, Loop, Reduce
from repro.coproc.coprocessor import CoProcessor, SharingMode
from repro.coproc.metrics import Metrics
from repro.core.lane_manager import StaticLaneManager
from tests.conftest import make_reduction


def fresh_coproc(config, mode=SharingMode.SPATIAL):
    metrics = Metrics(config.num_cores, config.vector.total_lanes, 2)
    manager = StaticLaneManager({c: 16 for c in range(config.num_cores)})
    return CoProcessor(config, mode, metrics, manager)


class TestEngineBasics:
    def test_apply_vl_through_resource_table(self, config):
        coproc = fresh_coproc(config)
        assert coproc.resource_table.apply_vl(0, 8)
        assert coproc.configured_vl(0) == 8
        assert coproc.resource_table.free_lanes == config.vector.total_lanes - 8

    def test_drained_initially(self, config):
        coproc = fresh_coproc(config)
        assert coproc.drained(0)
        assert coproc.can_transmit(0)

    def test_step_idle_counts_no_events(self, config):
        coproc = fresh_coproc(config)
        coproc.set_core_active(0, False)
        coproc.set_core_active(1, False)
        assert coproc.step(0) == 0


class TestSveScalarOrdering:
    """⟨SVE, Scalar⟩: a scalar read of a vector-produced value stalls
    until the producing instruction completes — verified functionally: the
    reduction result written through the scalar path must be exact."""

    def test_vhreduce_scalar_result_correct(self, config):
        kernel = make_reduction(length=300)
        job = Job(compile_kernel(kernel), build_image(kernel, 0))
        result = run_policy(config, PRIVATE, [job, None])
        check_answers([kernel, None], result.images, "reduction under private")


class TestLdStOrdering:
    """⟨SVE ld/st, SVE ld/st⟩ with address overlap: in-place updates."""

    @pytest.mark.parametrize("policy", [PRIVATE, OCCAMY], ids=lambda p: p.key)
    def test_read_modify_write_chain(self, config, policy):
        kernel = Kernel(
            "rmw", array_length=200,
            loops=(
                Loop(
                    "rmw", trip_count=200, repeats=4,
                    body=(
                        Assign("a", BinOp("add", Load("a"), Load("b"))),
                        Reduce("add", "sum_a", Load("a")),
                    ),
                ),
            ),
        )
        job = Job(compile_kernel(kernel), build_image(kernel, 0))
        result = run_policy(config, policy, [job, None])
        check_answers([kernel, None], result.images, f"rmw under {policy.key}")


class TestEmSimdOrdering:
    """⟨EM-SIMD, SVE⟩ / ⟨SVE, EM-SIMD⟩: reconfigurations drain the pipe
    and later SVE instructions observe the new vector length."""

    def test_vl_changes_are_serialised(self, config):
        result = run_policy(
            config, OCCAMY,
            [Job(compile_kernel(make_reduction(length=400)), build_image(make_reduction(length=400), 0)), None],
        )
        # Every successful reconfiguration happened on a drained pipeline:
        # the engine only executes MSR <VL> at the pool head, so a success
        # with in-flight instructions would have tripped the renamer
        # invariant; reaching here means ordering held.
        assert result.metrics.reconfig_success[0] >= 1
