"""The engine's profile of a run rides on the result: through the cache,
through a pool worker, through the summary the service ships — so
``--profile`` means the same thing however the results arrived."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis import result_cache
from repro.analysis.parallel import SimTask, execute_task, run_tasks, task_key
from repro.analysis.result_cache import ResultCache
from repro.common.config import experiment_config
from repro.core.result import RunProfile, attribution_report
from repro.validation.fingerprint import fingerprint_sections, summarize_result

MARKER = "simulated-cycle attribution:"


def _task(policy_key="occamy"):
    return SimTask(
        policy_key=policy_key, scale=0.05, config=experiment_config(), kind="motivate"
    )


def _motivate_profile(*options, env):
    done = subprocess.run(
        [sys.executable, "-m", "repro", "motivate", "--scale", "0.05", "--profile",
         *options],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    table, marker, block = done.stdout.partition(MARKER)
    assert marker, done.stdout
    return table, block


def test_profile_block_is_identical_however_the_results_arrived(tmp_path):
    src = Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "REPRO_CACHE_DIR": str(tmp_path / "c")}
    env.pop("REPRO_NO_CACHE", None)
    env.pop("REPRO_JOBS", None)
    serial = _motivate_profile("--jobs", "1", "--no-cache", env=env)
    pooled = _motivate_profile("--jobs", "2", "--no-cache", env=env)
    assert not (tmp_path / "c").exists()
    cold = _motivate_profile("--jobs", "2", env=env)
    assert len(list((tmp_path / "c").glob("*.pkl"))) == 4
    warm = _motivate_profile("--jobs", "1", env=env)
    assert serial == pooled == cold == warm
    block = serial[1]
    assert "results used                     4\n" in block
    assert "without a profile" not in block
    total = int(block.split("total cycles")[1].split()[0])
    assert total > 0


def test_profile_round_trips_through_the_cache_and_the_summary(tmp_path):
    task = _task()
    result = execute_task(task)
    assert isinstance(result.profile, RunProfile)
    assert result.profile.total_cycles == result.total_cycles
    expected = dataclasses.asdict(result.profile)
    assert summarize_result(result)["profile"] == expected
    assert "profile" not in fingerprint_sections(result)

    cache = ResultCache(tmp_path / "cache")
    key = task_key(task)
    assert cache.put(key, result)["profile"] == expected
    assert cache.get_summary(key)["profile"] == expected
    assert cache.get(key).profile == result.profile
    assert RunProfile(**cache.get_summary(key)["profile"]) == result.profile

    # A summaries=True sweep: the miss and then the hit carry it too.
    sweep_cache = ResultCache(tmp_path / "sweep")
    for _ in range(2):
        (summary,) = run_tasks([task], jobs=1, cache=sweep_cache, summaries=True)
        assert summary["profile"] == expected
    (uncached,) = run_tasks([task], jobs=1, cache=None, summaries=True)
    assert uncached["profile"] == expected


def test_entry_written_before_results_carried_a_profile(tmp_path):
    """Synthesised: the summary without the key, the result without the
    attribute — what the previous commit's ``put`` left on disk."""
    task = _task("private")
    result = execute_task(task)
    key = task_key(task)
    summary = summarize_result(result, key)
    del summary["profile"]
    del result.__dict__["profile"]
    cache = ResultCache(tmp_path / "cache")
    cache.directory.mkdir(parents=True)
    body = pickle.dumps(summary) + pickle.dumps(result)
    prefix = result_cache._PREFIX
    cache.path_for(key).write_bytes(
        prefix.pack(result_cache.CACHE_VERSION, prefix.size + len(body)) + body
    )

    loaded = cache.get(key)
    assert loaded is not None and loaded.profile is None
    assert loaded.total_cycles == result.total_cycles
    served = cache.get_summary(key)
    assert served["profile"] is None
    assert served["fingerprint"] == summary["fingerprint"]
    assert summarize_result(loaded, key) == served

    fresh = execute_task(_task("occamy"))
    report = attribution_report([loaded, fresh])
    assert f"total cycles        {fresh.total_cycles:>12}\n" in report
    assert "results used                     2\n" in report
    assert report.endswith("  without a profile              1")
