"""Compiler-knob study: FMA fusion, the Fig. 9 strip length ``s`` and the
lazy partition monitor.

Not a paper figure, nor a row of :mod:`repro.analysis.fidelity`: every
variant here is a ``CompileOptions`` value, and a task compiles its
workloads with the default ones.

The first study quantifies the compiler optimisations the paper
leaves to "any existing vectorization algorithm" (§6.4/§8).  FMA fusion
halves the multiply-add issue slots: with a deep enough out-of-order
window both the parallel bank and the serial chain speed up (the window
overlaps enough iterations to hide the fused chain's longer per-iteration
dependency path).  Compiling *without* the residency hint shows a subtle
interaction instead: fusion lowers the phase's Eq. 5 intensity, and a
DRAM-level roofline then grants the loop fewer lanes — an example of why
the hierarchical hint matters.

The second is the eager-only ablation of §4's design: compiled with
``elastic=False`` there is no lazy monitor, so a phase keeps its prologue
vector length until it ends.
"""

from benchmarks.conftest import banner, run_once
from repro import Job, OCCAMY, build_image, compile_kernel, run_policy
from repro.analysis.experiments import motivation_fig2
from repro.analysis.reporting import format_table
from repro.common.config import experiment_config
from repro.compiler.ir import Assign, BinOp, Kernel, Load, Loop, Param
from repro.compiler.pipeline import CompileOptions
from repro.workloads.motivating import motivating_pair

#: The motivating pair's scale for the eager-only ablation: Fig. 2's.
SCALE = 0.5


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


def serial_chain(terms: int = 6, trip: int = 1024, repeats: int = 60) -> Kernel:
    """A serial accumulation: out = (((c0*x0) + c1*x1) + ...)."""
    expr = BinOp("mul", Param("c0"), Load("in0"))
    for index in range(1, terms):
        expr = BinOp("add", expr, BinOp("mul", Param(f"c{index}"), Load(f"in{index}")))
    return Kernel(
        "chain", array_length=trip,
        loops=(Loop("chain", trip_count=trip, repeats=repeats, body=(Assign("out", expr),)),),
        params={f"c{index}": 1.0 + 0.1 * index for index in range(terms)},
    )


def _run(kernel: Kernel, options: CompileOptions):
    import dataclasses

    config = experiment_config()
    options = dataclasses.replace(options, memory=config.memory)
    program = compile_kernel(kernel, options)
    result = run_policy(config, OCCAMY, [Job(program, build_image(kernel, 0)), None])
    return result.total_cycles, result.metrics.compute_uops[0]


def test_fma_fusion_and_unrolling(benchmark):
    def run_all():
        out = {}
        for shape, kernel_factory in (("parallel", parallel_bank), ("serial", serial_chain)):
            for label, options in (
                ("baseline", CompileOptions()),
                ("fma", CompileOptions(fuse_fma=True)),
                ("unroll4", CompileOptions(unroll=4)),
                ("fma+unroll4", CompileOptions(fuse_fma=True, unroll=4)),
            ):
                out[(shape, label)] = _run(kernel_factory(), options)
        return out

    data = run_once(benchmark, run_all)

    rows = [
        [
            label,
            data[("parallel", label)][0],
            data[("parallel", label)][1],
            data[("serial", label)][0],
        ]
        for label in ("baseline", "fma", "unroll4", "fma+unroll4")
    ]
    banner("Compiler knobs — Occamy (parallel bank cycles/uops; serial cycles)")
    print(format_table(
        ["variant", "bank cycles", "bank compute uops", "chain cycles"], rows
    ))

    # Fusion halves the bank's dynamic compute-uop count and converts the
    # saved issue slots into cycles.
    assert (
        data[("parallel", "fma")][1] < 0.65 * data[("parallel", "baseline")][1]
    )
    assert data[("parallel", "fma")][0] < data[("parallel", "baseline")][0] * 0.85
    # The serial chain also gains: the OoO window overlaps iterations, so
    # throughput (issue slots), not the chain latency, is what binds.
    assert data[("serial", "fma")][0] <= data[("serial", "baseline")][0]
    # Unrolling never hurts the parallel bank.
    assert data[("parallel", "unroll4")][0] <= data[("parallel", "baseline")][0] * 1.05

    benchmark.extra_info["cycles"] = {
        f"{shape}/{label}": values[0] for (shape, label), values in data.items()
    }


def test_eager_only_ablation(benchmark):
    """The motivating pair compiled without the lazy monitor, under Occamy,
    beside Fig. 2's cached Private and full-design runs."""
    config = experiment_config()
    runs = motivation_fig2(scale=SCALE).results
    private, full = runs["private"], runs["occamy"]
    eager_only = CompileOptions(memory=config.memory, elastic=False)

    def run_eager_only():
        jobs = [
            Job(compile_kernel(kernel, eager_only), build_image(kernel, core))
            for core, kernel in enumerate(motivating_pair(SCALE))
        ]
        return run_policy(config, OCCAMY, jobs)

    eager = run_once(benchmark, run_eager_only)
    rows = [
        [
            key,
            f"{result.speedup_over(private, 0):.2f}",
            f"{result.speedup_over(private, 1):.2f}",
            f"{100 * result.metrics.simd_utilization():.1f}%",
        ]
        for key, result in (("occamy (full)", full), ("eager-only", eager))
    ]
    banner("Eager-only ablation — motivating pair (speedups over Private)")
    print(format_table(["variant", "sp0 (memory)", "sp1 (compute)", "util"], rows))

    # A phase can never shrink mid-flight, so a co-runner entering a more
    # demanding phase spins on MSR <VL> until the hog exits: the memory
    # core's performance collapses.
    assert eager.speedup_over(private, 0) < 0.9
    # And the full design's SIMD utilisation is not beaten.
    assert full.metrics.simd_utilization() >= eager.metrics.simd_utilization()
    benchmark.extra_info["sp0_eager_only"] = eager.speedup_over(private, 0)
