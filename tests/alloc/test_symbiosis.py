"""Symbiosis matrix + matching solver: bounds and determinism."""

from __future__ import annotations

import random

import pytest

from repro.alloc.placement import ThreadSpec
from repro.alloc.symbiosis import (
    AllocContext,
    MatrixEntry,
    SymbiosisAllocation,
    build_matrix,
    expected_random_matching_weight,
    matching_weight,
    matrix_key,
    solve_pairing,
)
from repro.common.config import experiment_config
from repro.common.errors import ConfigurationError

from tests.conftest import make_axpy, make_reduction, make_stencil


def _threads():
    return [
        ThreadSpec(key="axpy:00", kernel=make_axpy(length=256)),
        ThreadSpec(key="axpy:01", kernel=make_axpy(length=256)),
        ThreadSpec(key="red:02", kernel=make_reduction(length=256, repeats=4)),
        ThreadSpec(key="sten:03", kernel=make_stencil(length=256)),
    ]


def _random_weights(rng, n):
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = rng.uniform(-5.0, 5.0)
    return weights


# --- the solver --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("n", (4, 8, 12))
def test_matching_never_below_random_expectation(seed, n):
    """The 2-opt fixed point's guarantee: W >= S/(n-1), the expected
    weight of a uniform random perfect matching (property test)."""
    weights = _random_weights(random.Random(seed), n)
    pairs = solve_pairing(weights)
    assert len(pairs) == n // 2
    matched = sorted(v for pair in pairs for v in pair)
    assert matched == list(range(n))
    assert matching_weight(weights, pairs) >= (
        expected_random_matching_weight(weights) - 1e-9
    )


def test_solver_is_deterministic_and_finds_the_obvious_matching():
    # One dominant matching: (0,1) and (2,3) weigh far more than any cross.
    weights = [
        [0.0, 10.0, 1.0, 1.0],
        [10.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 10.0],
        [1.0, 1.0, 10.0, 0.0],
    ]
    assert solve_pairing(weights) == ((0, 1), (2, 3))
    assert solve_pairing(weights) == solve_pairing([row[:] for row in weights])


def test_solver_escapes_a_bad_greedy_seed():
    # Greedy grabs (1,2) (weight 10) then is stuck with (0,3) (0) = 10;
    # the 2-opt swap to (0,1),(2,3) scores 9+9=18.
    weights = [
        [0.0, 9.0, 0.0, 0.0],
        [9.0, 0.0, 10.0, 0.0],
        [0.0, 10.0, 0.0, 9.0],
        [0.0, 0.0, 9.0, 0.0],
    ]
    pairs = solve_pairing(weights)
    assert matching_weight(weights, pairs) == 18.0


def test_solver_input_validation():
    with pytest.raises(ConfigurationError, match="even"):
        solve_pairing([[0.0] * 3 for _ in range(3)])
    with pytest.raises(ConfigurationError, match="square"):
        solve_pairing([[0.0, 1.0], [0.0]])
    assert solve_pairing([]) == ()


def test_expected_random_matching_weight():
    weights = [
        [0.0, 1.0, 2.0, 3.0],
        [1.0, 0.0, 4.0, 5.0],
        [2.0, 4.0, 0.0, 6.0],
        [3.0, 5.0, 6.0, 0.0],
    ]
    # S = 21 over n-1 = 3
    assert expected_random_matching_weight(weights) == pytest.approx(7.0)
    assert expected_random_matching_weight([[0.0]]) == 0.0


# --- the matrix --------------------------------------------------------------


def test_matrix_entry_weight_and_cost():
    entry = MatrixEntry(drains=(100.0, 200.0))
    assert entry.cost == 200.0
    import math

    assert entry.weight == pytest.approx(-(math.log(100.0) + math.log(200.0)))
    assert matrix_key("b", "a") == ("a", "b")


def test_matrix_is_deterministic_under_identical_priors():
    threads = _threads()
    context = AllocContext(config=experiment_config(num_cores=2))
    first = build_matrix(threads, context)
    second = build_matrix(threads, context)
    assert first == second
    # Symmetric lookup, and dedup: the two axpy threads share one entry.
    assert first.entry("red:02", "axpy:00") is not None
    assert first.weight("axpy:00", "red:02") == first.weight("red:02", "axpy:00")
    keys = [key for key, _ in first.entries]
    assert len(keys) == len(set(keys))
    with pytest.raises(ConfigurationError, match="no entry"):
        first.cost("axpy:00", "nope:99")


def test_symbiosis_placement_is_valid_and_deterministic():
    threads = _threads()
    policy = SymbiosisAllocation()
    context = AllocContext(config=experiment_config(num_cores=2))
    placement = policy(threads, context)
    assert placement == policy(threads, context)
    flat = sorted(index for group in placement for index in group)
    assert flat == list(range(4))
    with pytest.raises(ConfigurationError, match="even"):
        policy(threads[:3], context)

