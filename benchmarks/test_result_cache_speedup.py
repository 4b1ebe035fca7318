"""Warm-cache reproduction speed: re-rendering a figure from the
persistent result cache must be at least 5x faster than simulating it.

The "figure" here is a representative slice of the evaluation — the Fig. 2
motivating example plus two Table 3 pairs under all four policies (the
inputs of Figs. 10/11/13).  The cold pass simulates and populates a fresh
cache directory; the warm pass starts with the in-process memo cleared (as
a new process would) so every result is served by the on-disk layer.
"""

from __future__ import annotations

import time

from benchmarks.conftest import banner, run_once
from repro.analysis import experiments, result_cache
from repro.workloads.pairs import all_pairs

SCALE = 0.15
MIN_SPEEDUP = 5.0


def _figure_slice():
    motivation = experiments.motivation_fig2(scale=SCALE)
    outcomes = experiments.sweep_pairs(all_pairs()[:2], scale=SCALE)
    return motivation, outcomes


def test_warm_cache_speedup(benchmark, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    experiments._sweep_cache.clear()

    start = time.perf_counter()
    cold_motivation, cold_outcomes = _figure_slice()
    cold_seconds = time.perf_counter() - start
    entries = len(result_cache.default_cache())

    def warm():
        # A fresh process starts with an empty memo; only the disk is warm.
        experiments._sweep_cache.clear()
        return _figure_slice()

    start = time.perf_counter()
    warm_motivation, warm_outcomes = run_once(benchmark, warm)
    warm_seconds = time.perf_counter() - start
    speedup = cold_seconds / max(warm_seconds, 1e-9)

    banner("Persistent result cache — cold vs warm figure render")
    print(f"cold: {cold_seconds:.2f}s ({entries} results simulated + cached)")
    print(f"warm: {warm_seconds:.2f}s (served from disk)")
    print(f"speedup: {speedup:.0f}x (required: >= {MIN_SPEEDUP:.0f}x)")
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["warm_seconds"] = warm_seconds
    benchmark.extra_info["speedup"] = speedup

    # The cached results are the simulated results, exactly.
    for key in cold_motivation.results:
        assert (
            warm_motivation.results[key].total_cycles
            == cold_motivation.results[key].total_cycles
        )
    for cold_o, warm_o in zip(cold_outcomes, warm_outcomes):
        for key in cold_o.results:
            assert warm_o.results[key].total_cycles == cold_o.results[key].total_cycles

    assert speedup >= MIN_SPEEDUP
    experiments._sweep_cache.clear()
