"""Moving code behind load-on-use packages changed no public path.

Names, objects, pickles and cache keys are what they were when every
package imported everything up front and ``Job``/``RunResult``/
``SharingMode`` lived inside the engine.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from repro.analysis.parallel import SimTask, task_key, task_keys
from repro.analysis.result_cache import ResultCache, simulation_key
from repro.core.policies import ALL_POLICIES, OCCAMY
from repro.workloads.pairs import all_pairs
from tests.conftest import compiled_job, make_axpy

#: The one facade: sub-packages export nothing, a name is imported from
#: the module that defines it or from ``repro``.
LAZY_PACKAGES = ["repro"]


def _declared_imports(package):
    """``(module, name)`` for every import in the ``TYPE_CHECKING`` block."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    guard = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    )
    return [
        (node.module, alias.name)
        for node in guard.body
        for alias in node.names
    ]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_public_names_are_the_objects_at_their_defining_modules(package_name):
    package = importlib.import_module(package_name)
    declared = _declared_imports(package)
    # what tools are shown is what the runtime exports — no drift
    assert sorted(name for _, name in declared) == sorted(package.__all__)
    assert set(package.__all__) <= set(dir(package))
    for module, name in declared:
        value = getattr(package, name)
        assert value is getattr(importlib.import_module(module), name)
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith("repro."):
            assert value is getattr(importlib.import_module(home), name)
    with pytest.raises(AttributeError):
        package.no_such_name


def test_the_old_import_paths_give_the_leaf_objects():
    from repro import Job as top_job
    from repro.coproc.coprocessor import SharingMode as old_mode
    from repro.coproc.sharing import SharingMode
    from repro.core.machine import Job as old_job, RunResult as old_result
    from repro.core.result import Job, RunResult

    assert old_job is Job is top_job
    assert old_result is RunResult
    assert old_mode is SharingMode
    assert OCCAMY.mode is SharingMode.SPATIAL


def test_an_entry_pickled_under_the_old_path_is_a_hit(tmp_path, monkeypatch, config):
    from repro.core.machine import RunResult, run_policy

    result = run_policy(config, OCCAMY, [compiled_job(make_axpy(128)), None])
    result.profile = None  # results of that layout carried none
    cache = ResultCache(tmp_path)
    with monkeypatch.context() as old_layout:
        # pickle by reference, as entries written before the move were
        old_layout.setattr(RunResult, "__module__", "repro.core.machine")
        assert cache.put("k", result)
    stored = cache.path_for("k").read_bytes()
    assert b"repro.core.machine" in stored and b"repro.core.result" not in stored
    loaded = cache.get("k")
    assert type(loaded) is RunResult and loaded.total_cycles == result.total_cycles
    assert cache.get_summary("k")["total_cycles"] == result.total_cycles
    assert (cache.hits, cache.misses) == (2, 0)


def test_deduplicated_keys_are_the_per_task_keys(config):
    """The bench report's eight tasks: one compile per workload set gives
    the keys eight separate compiles gave."""
    tasks = [
        SimTask(policy_key=policy.key, scale=0.05, config=config, kind="motivate")
        for policy in ALL_POLICIES
    ] + [
        SimTask(policy_key=policy.key, scale=0.05, config=config, pair=all_pairs()[0])
        for policy in ALL_POLICIES
    ]
    keys = task_keys(tasks)
    assert len(set(keys)) == 8
    assert keys == [task_key(task) for task in tasks]
    assert keys == [
        simulation_key(task.config, task.policy_key, task.build_jobs(), task.max_cycles)
        for task in tasks
    ]


def test_a_group_given_as_a_list_keys_like_the_tuple(config):
    """``SimTask.group`` is any sequence; a list must not break the key."""
    as_list = SimTask(policy_key="occamy", scale=0.05, config=config, kind="group", group=[9, 13])
    as_tuple = SimTask(policy_key="occamy", scale=0.05, config=config, kind="group", group=(9, 13))
    assert task_key(as_list) == task_key(as_tuple)


def test_group_tasks_key_like_the_jobs_they_build(config):
    """The seams folded into ``run_tasks`` kept their keys: an N-core blend
    and a two-core group are ``simulation_key`` over ``jobs_for_group``."""
    from repro.analysis.experiments import ncore_group
    from repro.common.config import experiment_config
    from repro.workloads.pairs import jobs_for_group

    blend = ncore_group(8)
    for group, cfg in ((blend, experiment_config(num_cores=8)), (blend[:2], config)):
        task = SimTask(policy_key="fts", scale=0.05, config=cfg, kind="group", group=group)
        assert task_key(task) == simulation_key(cfg, "fts", jobs_for_group(group, 0.05))
