"""``analysis.parallel``: strict worker-count validation in
``resolve_jobs``, and how a ``SimTask`` builds its jobs."""

import dataclasses

import pytest

from repro.analysis.parallel import JOBS_ENV, resolve_jobs
from repro.common.errors import ConfigurationError


# --- argument (--jobs) path ---------------------------------------------------


def test_explicit_positive_integer():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(1) == 1


def test_numeric_strings_accepted():
    # the CLI hands --jobs through as a string
    assert resolve_jobs("4") == 4
    assert resolve_jobs(" 2 ") == 2


def test_auto_means_all_cpus():
    import os

    assert resolve_jobs("auto") == (os.cpu_count() or 1)
    assert resolve_jobs("AUTO") == (os.cpu_count() or 1)


@pytest.mark.parametrize("bad", [0, -1, -100, "0", "-3"])
def test_non_positive_flag_rejected(bad):
    with pytest.raises(ConfigurationError, match="not positive"):
        resolve_jobs(bad)


@pytest.mark.parametrize("bad", ["abc", "2.5", "", " ", "1e3"])
def test_non_integer_flag_string_rejected(bad):
    with pytest.raises(ConfigurationError, match="neither a positive integer"):
        resolve_jobs(bad)


@pytest.mark.parametrize("bad", [2.5, True, [4]])
def test_non_integer_flag_object_rejected(bad):
    with pytest.raises(ConfigurationError, match="expected a positive integer"):
        resolve_jobs(bad)


def test_flag_error_names_the_flag():
    with pytest.raises(ConfigurationError, match="--jobs"):
        resolve_jobs(-1)


# --- environment (REPRO_JOBS) path --------------------------------------------


def test_env_default_is_serial(monkeypatch):
    monkeypatch.delenv(JOBS_ENV, raising=False)
    assert resolve_jobs() == 1


def test_env_positive_integer(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "5")
    assert resolve_jobs() == 5


def test_env_auto(monkeypatch):
    import os

    monkeypatch.setenv(JOBS_ENV, "auto")
    assert resolve_jobs() == (os.cpu_count() or 1)


@pytest.mark.parametrize("bad", ["0", "-2", "abc", "2.5"])
def test_env_garbage_rejected_and_named(monkeypatch, bad):
    monkeypatch.setenv(JOBS_ENV, bad)
    with pytest.raises(ConfigurationError, match=JOBS_ENV):
        resolve_jobs()


def test_explicit_argument_wins_over_bad_env(monkeypatch):
    # an explicit good argument must not even look at a bad environment
    monkeypatch.setenv(JOBS_ENV, "garbage")
    assert resolve_jobs(2) == 2


def test_cli_surfaces_configuration_error(capsys, monkeypatch):
    """End to end: a bad --jobs exits 2 with a clear message, no traceback."""
    monkeypatch.delenv(JOBS_ENV, raising=False)
    from repro.cli import main

    code = main(["motivate", "--scale", "0.05", "--jobs", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "not positive" in captured.err


# --- SimTask.build_jobs: a task compiles for the memory it runs on ------------


def _assert_compiled_for_its_memory(task, kernels):
    """Every built program is ``compile_kernel`` for the task's own memory."""
    from repro.compiler.pipeline import CompileOptions, compile_kernel

    jobs = task.build_jobs()
    assert len(jobs) == len(kernels)
    for job, kernel in zip(jobs, kernels):
        if kernel is None:
            assert job is None
            continue
        expected = compile_kernel(kernel, CompileOptions(memory=task.config.memory))
        assert job.program.meta["phase_ois"] == expected.meta["phase_ois"]
        assert job.program.disassemble() == expected.disassemble()


def test_pair_and_group_tasks_compile_for_the_config_they_run_on():
    from repro.analysis.parallel import SimTask
    from repro.common.config import experiment_config, table4_config
    from repro.workloads.pairs import CoRunPair
    from repro.workloads.spec import spec_workload

    full = table4_config()
    assert full.memory != experiment_config().memory
    pair = SimTask(
        policy_key="occamy", scale=0.1, config=full, pair=CoRunPair("spec", 20, 17)
    )
    _assert_compiled_for_its_memory(
        pair, [spec_workload(20, scale=0.1), spec_workload(17, scale=0.1)]
    )
    # A group task, one member an idle core.
    group = SimTask(
        policy_key="occamy", scale=0.1, config=full, kind="group", group=(None, 8)
    )
    _assert_compiled_for_its_memory(group, [None, spec_workload(8, scale=0.1)])
    # The check has teeth: the same pair compiles differently for the
    # scaled-down experiment memory (WL20's working set fits no cache there).
    scaled = dataclasses.replace(pair, config=experiment_config())
    assert [job.program.meta["phase_ois"] for job in scaled.build_jobs()] != [
        job.program.meta["phase_ois"] for job in pair.build_jobs()
    ]


@pytest.mark.parametrize("first", ["table4", "experiment"])
def test_compile_memo_never_crosses_memories(first):
    """One process, the same pair under two memories, either order: each
    task gets the program compiled for its own."""
    from repro.analysis.parallel import SimTask
    from repro.common.config import experiment_config, table4_config
    from repro.workloads import pairs
    from repro.workloads.spec import spec_workload

    configs = {"table4": table4_config(), "experiment": experiment_config()}
    order = [first] + [name for name in configs if name != first]
    pairs._compiled.cache_clear()
    kernels = [spec_workload(8, scale=0.1), spec_workload(17, scale=0.1)]
    for _ in range(2):  # the second pass is served from the memo
        for name in order:
            task = SimTask(
                policy_key="vls", scale=0.1, config=configs[name],
                pair=pairs.CoRunPair("spec", 8, 17),
            )
            _assert_compiled_for_its_memory(task, kernels)
    # The helpers outside a task are the same path, for the experiment memory.
    default = pairs.jobs_for_pair(pairs.CoRunPair("spec", 8, 17), scale=0.1)
    explicit = [
        pairs.job_for(("spec", workload), core, 0.1, configs["experiment"].memory)
        for core, workload in enumerate((8, 17))
    ]
    assert [job.program for job in default] == [job.program for job in explicit]
