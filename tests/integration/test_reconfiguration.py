"""Correctness under forced mid-loop vector-length reconfiguration (§6.4).

These tests drive the machine cycle by cycle and mutate ``<decision>``
directly, forcing the lazy partition monitor to reconfigure many times
inside one vectorized loop — including mid-reduction, where the compiler
must splice partial results across lengths.
"""

import numpy as np
import pytest

from repro import (
    OCCAMY,
    Job,
    Machine,
    build_image,
    compile_kernel,
    experiment_config,
    reference_execute,
)
from repro.common.errors import SimulationError
from tests.conftest import make_axpy, make_reduction, make_stencil, make_two_phase


def run_with_forced_decisions(kernel, schedule, period=150, max_cycles=400_000):
    """Run ``kernel`` solo under Occamy, rotating core0's ``<decision>``
    through ``schedule`` every ``period`` cycles.  Returns the image."""
    config = experiment_config()
    image = build_image(kernel, 0)
    machine = Machine(config, OCCAMY, [Job(compile_kernel(kernel), image), None])
    cycle = 0
    while not machine.finished:
        if cycle >= max_cycles:
            raise SimulationError("forced-reconfiguration run did not converge")
        if cycle % period == 0 and machine.coproc.resource_table.vl(0) > 0:
            lanes = schedule[(cycle // period) % len(schedule)]
            machine.coproc.resource_table.set_decision(0, lanes)
        machine.step(cycle)
        cycle += 1
    machine.metrics.close(cycle)
    return image, machine


SCHEDULES = [
    (4, 8, 16, 32),
    (32, 4),
    (1, 2, 3, 5, 7),
    (16, 16, 8),
]


class TestForcedReconfiguration:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
    def test_axpy_results_invariant(self, schedule):
        kernel = make_axpy(length=700, repeats=2)
        expected = reference_execute(kernel, build_image(kernel, 0))
        image, machine = run_with_forced_decisions(kernel, schedule)
        np.testing.assert_allclose(
            image.array("y"), expected.array("y"), rtol=1e-5
        )
        assert machine.metrics.reconfig_success[0] >= 2

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
    def test_reduction_spliced_across_lengths(self, schedule):
        # The §6.4 case: partial reduction results must survive VL changes.
        kernel = make_reduction(length=900, repeats=2)
        expected = reference_execute(kernel, build_image(kernel, 0))
        image, machine = run_with_forced_decisions(kernel, schedule, period=120)
        np.testing.assert_allclose(
            image.array("acc"), expected.array("acc"), rtol=1e-3
        )
        assert machine.metrics.reconfig_success[0] >= 3

    def test_stencil_with_reconfigurations(self):
        kernel = make_stencil(length=800)
        expected = reference_execute(kernel, build_image(kernel, 0))
        image, _machine = run_with_forced_decisions(kernel, (4, 12, 28), period=100)
        np.testing.assert_allclose(
            image.array("out"), expected.array("out"), rtol=1e-5
        )

    def test_loop_invariants_reinitialised(self):
        # Params are splatted into vector registers that die on reconfig;
        # the compiler must re-dup them (§6.4).
        kernel = make_axpy(length=600)  # uses Param("a")
        expected = reference_execute(kernel, build_image(kernel, 0))
        image, _machine = run_with_forced_decisions(kernel, (2, 30), period=90)
        np.testing.assert_allclose(
            image.array("y"), expected.array("y"), rtol=1e-5
        )

    def test_multi_phase_with_reconfigurations(self):
        kernel = make_two_phase(length=600)
        expected = reference_execute(kernel, build_image(kernel, 0))
        image, _machine = run_with_forced_decisions(kernel, (6, 24, 12), period=130)
        for name, array in expected:
            np.testing.assert_allclose(image.array(name), array, rtol=1e-4)

    def test_lane_table_consistent_after_forcing(self):
        kernel = make_axpy(length=500)
        _image, machine = run_with_forced_decisions(kernel, (4, 20, 8))
        machine.coproc.resource_table.check_invariant()
        assert machine.coproc.resource_table.free_lanes == 32
