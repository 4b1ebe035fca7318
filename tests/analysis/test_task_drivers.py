"""The drivers that used to hand-roll compile -> ``Job`` -> ``run_policy``
(``validate_ecm``, ``case_study_fig14``, ``sensitivity.sweep``) are task
lists now: the numbers are the ones the hand-rolled loops gave, and a second
call simulates nothing."""

import pytest

from repro.analysis import experiments, parallel, result_cache
from repro.analysis.experiments import case_study_fig14
from repro.analysis.sensitivity import sweep
from repro.analysis.validation import validate_ecm

# Captured from the serial, uncached loops these drivers replaced.
ECM_MEASURED = [
    ("WL17", "occamy", 1960), ("WL17", "fts", 2823), ("WL17", "cts", 1960),
    ("WL20", "occamy", 38477), ("WL20", "fts", 35713), ("WL20", "cts", 36288),
]
ECM_GEOMEAN_ERROR = 0.08254062036712088
FIG14_LANE_SWEEP = {
    4: ([21787, 36894], 12974),
    16: ([14668, 21865], 3420),
    28: ([14290, 21597], 2262),
}
FIG14_CORUN_CYCLES = {"private": 43804, "fts": 43839, "vls": 38307, "occamy": 38307}
SENSITIVITY_TOTAL_LANES = [
    (16, 30805, 28346, 1.0, 1.0867525136708414, 1.0873706895346356),
    (32, 27860, 27989, 4.695359546581651, 0.9953908818064885, 1.0164444775342925),
    (64, 27575, 28086, 7.011918274687854, 0.9818052341107353, 1.0429816676414603),
]


def _ecm(jobs):
    validation = validate_ecm(workload_ids=[17, 20], scale=0.05, jobs=jobs)
    measured = [
        (point.workload, point.policy_key, point.measured_cycles)
        for point in validation.points
    ]
    return measured, validation.geomean_error


def _fig14(jobs):
    study = case_study_fig14(scale=0.05, lane_choices=(4, 16, 28), jobs=jobs)
    corun = {key: result.total_cycles for key, result in study.corun.items()}
    return study.lane_sweep, corun


def _sensitivity(jobs):
    return [
        (
            point.value, point.private_cycles, point.occamy_cycles,
            point.compute_speedup, point.memory_speedup, point.utilization_gain,
        )
        for point in sweep("total_lanes", scale=0.05, jobs=jobs)
    ]


@pytest.mark.parametrize(
    "driver, expected, simulations",
    [
        (_ecm, (ECM_MEASURED, ECM_GEOMEAN_ERROR), 6),
        (_fig14, (FIG14_LANE_SWEEP, FIG14_CORUN_CYCLES), 10),
        (_sensitivity, SENSITIVITY_TOTAL_LANES, 6),
    ],
    ids=["validate_ecm", "case_study_fig14", "sensitivity_sweep"],
)
def test_driver_keeps_its_numbers_and_is_cached(
    driver, expected, simulations, tmp_path, monkeypatch
):
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(result_cache.NO_CACHE_ENV, raising=False)
    cache = result_cache.default_cache()

    # Cold, on a pool of two: cycle for cycle what the serial loop gave.
    experiments._sweep_cache.clear()
    assert driver(2) == expected
    assert len(cache) == simulations

    # Warm, in a process that remembers nothing: jobs are built for their
    # keys only, nothing is executed, nothing is stored.
    calls = {"build": 0, "execute": 0}
    build_jobs, execute_task = parallel.SimTask.build_jobs, parallel.execute_task

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(parallel.SimTask, "build_jobs", counted("build", build_jobs))
    monkeypatch.setattr(parallel, "execute_task", counted("execute", execute_task))
    experiments._sweep_cache.clear()
    assert driver(1) == expected
    assert calls["execute"] == 0
    assert 0 < calls["build"] <= simulations
    assert len(cache) == simulations
    experiments._sweep_cache.clear()
