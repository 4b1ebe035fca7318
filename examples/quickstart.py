#!/usr/bin/env python
"""Quickstart: compile a kernel, run it under every sharing policy.

Builds a simple saxpy-like kernel in the loop IR, compiles it with the
Occamy compiler (which inserts the Fig. 9 eager-lazy EM-SIMD
instrumentation automatically), and simulates it solo on a two-core
machine under all four SIMD sharing architectures, printing cycles,
utilisation and the lane plan.

Run:  python examples/quickstart.py
"""

from repro import (
    ALL_POLICIES,
    Assign,
    BinOp,
    Job,
    Kernel,
    Load,
    Loop,
    Param,
    build_image,
    compile_kernel,
    experiment_config,
    run_policy,
)
from repro.compiler.reference import check_answers


def main() -> None:
    # y = a*x + y over 4096 elements, repeated 8 times.
    kernel = Kernel(
        name="saxpy",
        array_length=4096,
        loops=(
            Loop(
                "saxpy",
                trip_count=4096,
                repeats=8,
                body=(
                    Assign(
                        "y",
                        BinOp("add", BinOp("mul", Param("a"), Load("x")), Load("y")),
                    ),
                ),
            ),
        ),
        params={"a": 2.0},
    )

    config = experiment_config()
    # Passing the memory config lets the compiler tag each phase's <OI>
    # with its cache-residency level (hierarchical roofline, §5.1).
    from repro import CompileOptions

    program = compile_kernel(kernel, CompileOptions(memory=config.memory))
    print(f"Compiled {kernel.name}: {len(program)} instructions")
    print(f"Phase operational intensity: {program.meta['phase_ois'][0]}")
    print()

    print(f"{'policy':>8} {'cycles':>8} {'util':>7} {'lanes used'}")
    for policy in ALL_POLICIES:
        job = Job(program, build_image(kernel, core_id=0))
        result = run_policy(config, policy, [job, None])
        # Raises unless every array equals the numpy oracle's bit for bit.
        check_answers([kernel, None], result.images, f"{kernel.name} under {policy.key}")
        lanes = sorted(
            {int(v) for _, v in result.metrics.lane_timeline[0].points if v}
        )
        print(
            f"{policy.key:>8} {result.total_cycles:>8} "
            f"{100 * result.metrics.simd_utilization():>6.1f}% {lanes}"
        )
    print()
    print("All four policies computed bit-identical results. Occamy/FTS give")
    print("a solo workload the whole 32-lane pool; Private caps it at 16.")


if __name__ == "__main__":
    main()
