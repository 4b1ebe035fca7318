"""Functional correctness: simulation must match the numpy oracle under
EVERY sharing policy and re-partitioning schedule (paper §6.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ALL_POLICIES,
    Assign,
    BinOp,
    Call,
    Const,
    Job,
    Kernel,
    Load,
    Loop,
    Param,
    Reduce,
    build_image,
    compile_kernel,
    experiment_config,
    run_policy,
)
from repro.compiler.reference import check_answers
from tests.conftest import make_axpy, make_reduction, make_stencil, make_two_phase


def assert_matches_reference(kernel, policy, config=None, core=0):
    config = config or experiment_config()
    jobs = [None] * config.num_cores
    jobs[core] = Job(compile_kernel(kernel), build_image(kernel, core_id=core))
    result = run_policy(config, policy, jobs)
    kernels = [None] * config.num_cores
    kernels[core] = kernel
    check_answers(kernels, result.images, f"{kernel.name} under {policy.key}")


class TestAllPolicies:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.key)
    def test_axpy(self, policy):
        assert_matches_reference(make_axpy(), policy)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.key)
    def test_stencil(self, policy):
        assert_matches_reference(make_stencil(), policy)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.key)
    def test_reduction(self, policy):
        assert_matches_reference(make_reduction(), policy)

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.key)
    def test_two_phase(self, policy):
        assert_matches_reference(make_two_phase(), policy)


class TestTailHandling:
    @pytest.mark.parametrize("length", [1, 3, 63, 64, 65, 127, 129, 200])
    def test_odd_trip_counts(self, length):
        # The predicated tail must handle every remainder.
        kernel = make_axpy(length=length)
        assert_matches_reference(kernel, ALL_POLICIES[3])

    def test_repeats_accumulate_in_place(self):
        kernel = Kernel(
            "inplace", array_length=130,
            loops=(
                Loop(
                    "inc", trip_count=130, repeats=3,
                    body=(Assign("a", BinOp("add", Load("a"), Const(1.0))),),
                ),
            ),
        )
        assert_matches_reference(kernel, ALL_POLICIES[3])


class TestOperatorSemantics:
    @pytest.mark.parametrize(
        "op", ["add", "sub", "mul", "div", "min", "max"]
    )
    def test_binops(self, op):
        kernel = Kernel(
            f"bin_{op}", array_length=100,
            loops=(
                Loop(
                    op, trip_count=100,
                    body=(Assign("c", BinOp(op, Load("a"), Load("b"))),),
                ),
            ),
        )
        assert_matches_reference(kernel, ALL_POLICIES[0])

    @pytest.mark.parametrize("op", ["sqrt", "abs", "neg"])
    def test_calls(self, op):
        kernel = Kernel(
            f"call_{op}", array_length=100,
            loops=(
                Loop(op, trip_count=100, body=(Assign("c", Call(op, Load("a"))),),),
            ),
        )
        assert_matches_reference(kernel, ALL_POLICIES[0])

    @pytest.mark.parametrize("op", ["add", "min", "max"])
    def test_reduction_ops(self, op):
        kernel = Kernel(
            f"red_{op}", array_length=150,
            loops=(
                Loop(op, trip_count=150, body=(Reduce(op, "acc", Load("a")),),),
            ),
        )
        assert_matches_reference(kernel, ALL_POLICIES[3])

    def test_params_broadcast(self):
        kernel = Kernel(
            "paramed", array_length=90,
            loops=(
                Loop(
                    "p", trip_count=90,
                    body=(
                        Assign("c", BinOp("mul", Param("k"), Load("a"))),
                        Assign("d", BinOp("add", Param("k"), Param("j"))),
                    ),
                ),
            ),
            params={"k": 3.5, "j": -1.25},
        )
        assert_matches_reference(kernel, ALL_POLICIES[0])


# Random expression trees for the property test.
def _expr(depth):
    if depth == 0:
        return st.one_of(
            st.sampled_from([Load("a"), Load("b"), Load("a", 1)]),
            st.floats(0.1, 2.0).map(lambda v: Const(round(v, 3))),
        )
    sub = _expr(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from(["add", "sub", "mul", "min", "max"]), sub, sub).map(
            lambda t: BinOp(*t)
        ),
        st.tuples(st.sampled_from(["abs", "neg"]), sub).map(lambda t: Call(*t)),
    )


class TestPropertyBased:
    @settings(max_examples=12, deadline=None)
    @given(expr=_expr(3), trip=st.integers(30, 200))
    def test_random_kernels_match_oracle(self, expr, trip):
        kernel = Kernel(
            "random", array_length=trip + 2,
            loops=(Loop("r", trip_count=trip, body=(Assign("out", expr),)),),
        )
        assert_matches_reference(kernel, ALL_POLICIES[3])
