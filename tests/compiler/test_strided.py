"""Strided (interleaved-layout) loads through the whole stack."""

import pytest

from repro import (
    ALL_POLICIES,
    OCCAMY,
    Job,
    build_image,
    compile_kernel,
    experiment_config,
    run_policy,
)
from repro.compiler.reference import check_answers
from repro.common.errors import CompilationError, VectorizationError
from repro.compiler.dag import build_dag
from repro.compiler.ir import Assign, BinOp, Const, Kernel, Load, Loop
from repro.compiler.vectorizer import vectorize_loop

PIXELS = 400


def interleaved_gray(pixels=PIXELS):
    body = (
        Assign(
            "gray",
            BinOp(
                "add",
                BinOp(
                    "add",
                    BinOp("mul", Const(0.299), Load("img", stride=3, offset=0)),
                    BinOp("mul", Const(0.587), Load("img", stride=3, offset=1)),
                ),
                BinOp("mul", Const(0.114), Load("img", stride=3, offset=2)),
            ),
        ),
    )
    return Kernel(
        "interleaved", array_length=3 * pixels,
        loops=(Loop("gray", trip_count=pixels, body=body),),
    )


def single_channel(pixels, stride):
    body = (Assign("out", BinOp("mul", Load("img", stride=stride), Const(2.0))),)
    return Kernel(
        f"chan{stride}", array_length=stride * pixels,
        loops=(Loop("chan", trip_count=pixels, repeats=2, body=body),),
    )


class TestValidation:
    def test_bad_stride_rejected(self):
        with pytest.raises(CompilationError):
            Load("a", stride=0)

    def test_offset_must_fit_stride(self):
        with pytest.raises(CompilationError):
            Load("a", stride=2, offset=2)
        Load("a", stride=2, offset=1)  # fine

    def test_array_length_accounts_for_stride(self):
        loop = Loop("l", trip_count=100, body=(Assign("b", Load("a", stride=4)),))
        with pytest.raises(CompilationError):
            Kernel("k", array_length=200, loops=(loop,))
        Kernel("k", array_length=400, loops=(loop,))

    def test_strided_read_of_written_array_rejected(self):
        loop = Loop(
            "l", trip_count=64,
            body=(Assign("a", BinOp("add", Load("a", stride=2), Const(1.0))),),
        )
        with pytest.raises(VectorizationError):
            build_dag(loop)


class TestAnalysis:
    def test_channels_are_distinct_loads(self):
        dag = build_dag(interleaved_gray().loops[0])
        assert dag.num_loads == 3  # three offsets, no CSE collapse

    def test_index_temps_collected(self):
        vloop = vectorize_loop(interleaved_gray().loops[0])
        assert (0, 3, 0) in vloop.index_temps
        assert (0, 3, 1) in vloop.index_temps
        assert vloop.shifts == ()  # no unit-stride stencil shifts


class TestCorrectness:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.key)
    def test_interleaved_gray_matches_oracle(self, policy):
        kernel = interleaved_gray()
        config = experiment_config()
        job = Job(compile_kernel(kernel), build_image(kernel, 0))
        result = run_policy(config, policy, [job, None])
        check_answers([kernel, None], result.images, f"gray under {policy.key}")

    @pytest.mark.parametrize("stride", [2, 3, 4, 7])
    def test_strides_and_offsets(self, stride):
        kernel = single_channel(200, stride)
        config = experiment_config()
        job = Job(compile_kernel(kernel), build_image(kernel, 0))
        result = run_policy(config, OCCAMY, [job, None])
        check_answers([kernel, None], result.images, f"stride {stride}")


class TestTimingCost:
    def test_single_channel_extraction_wastes_bandwidth(self):
        # Reading one channel of an interleaved image (stride 4) streams
        # 4x the cache lines of a planar copy of the same channel.
        config = experiment_config()
        pixels = 16384  # large enough to stream from DRAM
        strided = single_channel(pixels, stride=4)
        planar = single_channel(pixels, stride=1)
        runs = {}
        for kernel in (strided, planar):
            image = build_image(kernel, 0)
            result = run_policy(
                config, OCCAMY, [Job(compile_kernel(kernel), image), None]
            )
            runs[kernel.name] = result.total_cycles
        assert runs["chan4"] > 2.5 * runs["chan1"]
