"""Correctness under forced mid-loop vector-length reconfiguration (§6.4).

These tests drive the machine cycle by cycle and mutate ``<decision>``
directly (:func:`~repro.validation.difftest.run_forced`), forcing the lazy
partition monitor to reconfigure many times inside one vectorized loop —
including mid-reduction, where the compiler must splice partial results
across lengths.  Each run's answers are held to the oracle by the one
check every executed simulation passes,
:func:`~repro.compiler.reference.check_answers`.
"""

import pytest

from repro import OCCAMY, Job, Machine, build_image, compile_kernel, experiment_config
from repro.compiler.reference import check_answers
from repro.validation.difftest import run_forced
from tests.conftest import make_axpy, make_reduction, make_stencil, make_two_phase


def run_checked(kernel, schedule, period=150):
    """Run ``kernel`` solo under Occamy, rotating core0's ``<decision>``
    through ``schedule`` every ``period`` cycles, and check its answers.
    Returns the machine."""
    config = experiment_config()
    job = Job(compile_kernel(kernel), build_image(kernel, 0))
    machine = Machine(config, OCCAMY, [job, None])
    result = run_forced(machine, schedule, period, max_cycles=400_000)
    check_answers([kernel, None], result.images, f"{kernel.name} forced {schedule}")
    return machine


SCHEDULES = [
    (4, 8, 16, 32),
    (32, 4),
    (1, 2, 3, 5, 7),
    (16, 16, 8),
]


class TestForcedReconfiguration:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
    def test_axpy_results_invariant(self, schedule):
        machine = run_checked(make_axpy(length=700, repeats=2), schedule)
        assert machine.metrics.reconfig_success[0] >= 2

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=str)
    def test_reduction_spliced_across_lengths(self, schedule):
        # The §6.4 case: partial reduction results must survive VL changes.
        kernel = make_reduction(length=900, repeats=2)
        machine = run_checked(kernel, schedule, period=120)
        assert machine.metrics.reconfig_success[0] >= 3

    def test_stencil_with_reconfigurations(self):
        run_checked(make_stencil(length=800), (4, 12, 28), period=100)

    def test_loop_invariants_reinitialised(self):
        # Params are splatted into vector registers that die on reconfig;
        # the compiler must re-dup them (§6.4).
        run_checked(make_axpy(length=600), (2, 30), period=90)  # uses Param("a")

    def test_multi_phase_with_reconfigurations(self):
        run_checked(make_two_phase(length=600), (6, 24, 12), period=130)

    def test_lane_table_consistent_after_forcing(self):
        machine = run_checked(make_axpy(length=500), (4, 20, 8))
        machine.coproc.resource_table.check_invariant()
        assert machine.coproc.resource_table.free_lanes == 32
