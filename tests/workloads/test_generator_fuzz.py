"""Fuzzing the sharing policies with random workload pairs.

The paper's invariants must hold for workloads nobody hand-picked:
results match the oracle, the lane accounting stays consistent, Occamy
never slows the memory core much, and the compute core never regresses
badly.
"""

import numpy as np
import pytest

from repro import (
    OCCAMY,
    PRIVATE,
    Job,
    build_image,
    compile_kernel,
    experiment_config,
    reference_execute,
    run_policy,
)
from repro.compiler.phase_analysis import analyze_kernel
from repro.compiler.pipeline import CompileOptions
from repro.core.machine import Machine
from repro.workloads.generator import random_pair, random_workload

SEEDS = [1, 7, 23]


class TestGenerator:
    def test_deterministic(self):
        a = random_workload(5, streaming=True)
        b = random_workload(5, streaming=True)
        assert [l.body for l in a.loops] == [l.body for l in b.loops]

    def test_memory_workloads_stream(self):
        for seed in range(6):
            kernel = random_workload(seed, streaming=True)
            for info in analyze_kernel(kernel):
                assert info.total_footprint_bytes > 128 * 1024

    def test_compute_workloads_resident(self):
        for seed in range(6):
            kernel = random_workload(seed, streaming=False)
            for info in analyze_kernel(kernel):
                assert info.total_footprint_bytes <= 32 * 1024

    def test_intensity_classes(self):
        mem = random_workload(3, streaming=True)
        comp = random_workload(3, streaming=False)
        assert max(i.oi.mem for i in analyze_kernel(mem)) < 0.45
        assert min(i.oi.mem for i in analyze_kernel(comp)) > 0.35


@pytest.mark.parametrize("seed", SEEDS)
class TestFuzzedPairs:
    def _run(self, seed, policy):
        config = experiment_config()
        mem_k, comp_k = random_pair(seed, scale=0.15)
        options = CompileOptions(memory=config.memory)
        jobs = [
            Job(compile_kernel(mem_k, options), build_image(mem_k, 0)),
            Job(compile_kernel(comp_k, options), build_image(comp_k, 1)),
        ]
        machine = Machine(config, policy, jobs)
        result = machine.run()
        return (mem_k, comp_k), jobs, result, machine

    def test_results_match_oracle(self, seed):
        (mem_k, comp_k), _jobs, _result, _machine = self._run(seed, OCCAMY)
        config = experiment_config()
        options = CompileOptions(memory=config.memory)
        for kernel in (mem_k, comp_k):
            image = build_image(kernel, 0)
            expected = reference_execute(kernel, image)
            run_policy(
                config, OCCAMY, [Job(compile_kernel(kernel, options), image), None]
            )
            for name, array in expected:
                np.testing.assert_allclose(
                    image.array(name), array, rtol=1e-3,
                    err_msg=f"seed {seed}: {kernel.name}/{name}",
                )

    def test_lane_accounting_consistent(self, seed):
        _kernels, _jobs, _result, machine = self._run(seed, OCCAMY)
        machine.coproc.resource_table.check_invariant()
        assert machine.coproc.resource_table.free_lanes == 32

    def test_memory_core_not_devastated(self, seed):
        _k, _j, private, _m = self._run(seed, PRIVATE)
        _k, _j, occamy, _m = self._run(seed, OCCAMY)
        assert occamy.speedup_over(private, 0) > 0.8

    def test_compute_core_not_regressed(self, seed):
        _k, _j, private, _m = self._run(seed, PRIVATE)
        _k, _j, occamy, _m = self._run(seed, OCCAMY)
        assert occamy.speedup_over(private, 1) > 0.9
