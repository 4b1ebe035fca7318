"""The eager-only ablation of §4's design.

Compiled with ``CompileOptions(elastic=False)`` there is no lazy partition
monitor, so a phase keeps its prologue vector length until it ends.  The
motivating pair runs that way under Occamy, beside Fig. 2's cached Private
and full-design runs.

Not a row of :mod:`repro.analysis.fidelity`: the variant is a compile
option, and a task compiles its workloads with the default ones.
"""

from benchmarks.conftest import banner, run_once
from repro import Job, OCCAMY, build_image, compile_kernel, run_policy
from repro.analysis.experiments import motivation_fig2
from repro.analysis.reporting import format_table
from repro.common.config import experiment_config
from repro.compiler.pipeline import CompileOptions
from repro.workloads.motivating import motivating_pair

#: The motivating pair's scale: Fig. 2's.
SCALE = 0.5


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
