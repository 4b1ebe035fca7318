"""Strip-mining (Fig. 9's ``s``): unrolled bodies under one monitor."""

import pytest

from repro import (
    ALL_POLICIES,
    OCCAMY,
    CompileOptions,
    Job,
    build_image,
    compile_kernel,
    experiment_config,
    run_policy,
)
from repro.compiler.reference import check_answers
from repro.common.errors import ConfigurationError
from repro.compiler.ir import Assign, BinOp, Kernel, Load, Loop, Param
from repro.isa.instructions import AddVL, WhileLT
from tests.conftest import make_axpy, make_reduction, make_stencil


def parallel_bank(units: int = 6, trip: int = 1024, repeats: int = 60) -> Kernel:
    """Independent mads sharing one stream: out_j = c_j * x + d_j."""
    body = tuple(
        Assign(
            f"out{index}",
            BinOp("add", BinOp("mul", Param(f"c{index}"), Load("x")), Param(f"d{index}")),
        )
        for index in range(units)
    )
    params = {f"c{index}": 1.0 + 0.1 * index for index in range(units)}
    params.update({f"d{index}": 0.5 + 0.01 * index for index in range(units)})
    return Kernel(
        "bank", array_length=trip,
        loops=(Loop("bank", trip_count=trip, repeats=repeats, body=body),),
        params=params,
    )


class TestUnrollCodegen:
    def test_body_replicated(self):
        single = compile_kernel(make_axpy(), CompileOptions(unroll=1))
        quad = compile_kernel(make_axpy(), CompileOptions(unroll=4))
        count = lambda p, cls: sum(isinstance(i, cls) for i in p)
        assert count(quad, WhileLT) == 4 * count(single, WhileLT)
        assert count(quad, AddVL) == 4 * count(single, AddVL)

    def test_monitor_not_replicated(self):
        single = compile_kernel(make_axpy(), CompileOptions(unroll=1))
        quad = compile_kernel(make_axpy(), CompileOptions(unroll=4))
        assert len(quad.meta["monitor"]) == len(single.meta["monitor"])

    @pytest.mark.parametrize("unroll", [0, -3])
    def test_non_positive_unroll_rejected(self, unroll):
        with pytest.raises(ConfigurationError, match=str(unroll)):
            CompileOptions(unroll=unroll)


def test_unrolling_never_hurts_the_parallel_bank():
    config = experiment_config()

    def cycles(unroll):
        kernel = parallel_bank()
        program = compile_kernel(
            kernel, CompileOptions(memory=config.memory, unroll=unroll)
        )
        job = Job(program, build_image(kernel, 0))
        return run_policy(config, OCCAMY, [job, None]).total_cycles

    assert cycles(4) <= cycles(1) * 1.05


@pytest.mark.parametrize("unroll", [2, 3, 4])
class TestUnrollCorrectness:
    def _check(self, kernel, unroll, policy=OCCAMY):
        config = experiment_config()
        program = compile_kernel(kernel, CompileOptions(unroll=unroll))
        result = run_policy(config, policy, [Job(program, build_image(kernel, 0)), None])
        check_answers([kernel, None], result.images, f"unroll {unroll} under {policy.key}")

    def test_axpy_with_awkward_tails(self, unroll):
        # Lengths chosen so the tail lands inside different body copies.
        for length in (63, 130, 257, 300):
            self._check(make_axpy(length=length), unroll)

    def test_stencil(self, unroll):
        self._check(make_stencil(401), unroll)

    def test_reduction_spliced(self, unroll):
        self._check(make_reduction(391, repeats=2), unroll)

    def test_under_every_policy(self, unroll):
        for policy in ALL_POLICIES:
            self._check(make_axpy(217), unroll, policy=policy)
