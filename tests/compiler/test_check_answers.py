"""The answers check every executed simulation passes (§6.4)."""

import numpy as np
import pytest

from repro import OCCAMY, Job, build_image, compile_kernel, experiment_config, run_policy
from repro.common.errors import SimulationError
from repro.compiler.reference import check_answers, reduction_bound, reference_execute
from tests.conftest import make_axpy, make_reduction


def _run(kernels):
    jobs = [
        None if k is None else Job(compile_kernel(k), build_image(k, core))
        for core, k in enumerate(kernels)
    ]
    return run_policy(experiment_config(), OCCAMY, jobs).images


def test_a_run_passes_and_an_idle_core_is_skipped():
    kernels = [make_axpy(length=300), make_reduction(length=300)]
    images = _run(kernels)
    check_answers(kernels, images, "pair")
    check_answers([None, kernels[1]], [None, images[1]], "idle core 0")


def test_one_flipped_bit_names_task_core_array_and_index():
    kernels = [make_reduction(length=300), make_axpy(length=300)]
    images = _run(kernels)
    y = images[1].array("y")
    y[17] = np.nextafter(y[17], np.float32(np.inf))
    with pytest.raises(SimulationError, match=r"^pair: core 1 array 'y' index 17 .*bit-equal"):
        check_answers(kernels, images, "pair")


def test_a_reduction_may_move_within_its_bound_only():
    kernel = make_reduction(length=900, repeats=2)
    image, _idle = _run([kernel, None])
    oracle = reference_execute(kernel, build_image(kernel, 0))
    x, y = oracle.array("x"), oracle.array("y")
    # Two repeats of the same 900 products.
    bound = reduction_bound(1800, 2 * float(np.abs(x * y).astype(np.float64).sum()))
    expected = float(oracle.array("acc")[0])
    acc = image.array("acc")
    acc[0] = np.float32(expected + 0.9 * bound)
    check_answers([kernel, None], [image, None], "solo")
    acc[0] = np.float32(expected + 1.1 * bound)
    with pytest.raises(SimulationError, match=r"core 0 array 'acc' index 0 .*within"):
        check_answers([kernel, None], [image, None], "solo")


def test_the_bound_grows_with_the_terms_and_their_magnitude():
    assert reduction_bound(1, 1.0) == pytest.approx(3 * 2.0**-24)
    assert reduction_bound(1000, 1.0) < reduction_bound(2000, 1.0)
    assert reduction_bound(1000, 2.0) == pytest.approx(2 * reduction_bound(1000, 1.0))
