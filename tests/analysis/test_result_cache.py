"""The persistent result cache: keys, round-trips, corruption tolerance."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.analysis import experiments, result_cache
from repro.analysis.result_cache import ResultCache, simulation_key
from repro.common.config import experiment_config
from repro.core.machine import run_policy
from repro.core.policies import ALL_POLICIES, PRIVATE
from repro.workloads.pairs import all_pairs

from tests.conftest import (
    REMOVED_KILL_SWITCHES,
    compiled_job,
    make_axpy,
    run_fingerprint,
)

SCALE = 0.1


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def small_run(config):
    jobs = [compiled_job(make_axpy(length=64)), None]
    return jobs, run_policy(config, PRIVATE, jobs)


def test_round_trip_preserves_everything(cache, config, small_run):
    jobs, result = small_run
    key = simulation_key(config, PRIVATE.key, jobs)
    assert cache.get(key) is None  # cold
    assert cache.put(key, result)
    loaded = cache.get(key)
    assert loaded is not None and loaded is not result
    assert run_fingerprint(loaded) == run_fingerprint(result)
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def test_key_covers_every_simulation_input(config):
    jobs = [compiled_job(make_axpy(length=64)), None]
    base = simulation_key(config, PRIVATE.key, jobs)
    # Same inputs -> same key (stable across calls).
    assert simulation_key(config, PRIVATE.key, jobs) == base
    # Policy, budget, config and workload changes all produce new keys.
    assert simulation_key(config, "occamy", jobs) != base
    assert simulation_key(config, PRIVATE.key, jobs, max_cycles=10) != base
    assert simulation_key(experiment_config(num_cores=4), PRIVATE.key,
                          [*jobs, None, None]) != base
    wider = dataclasses.replace(
        config,
        vector=dataclasses.replace(config.vector, total_lanes=config.vector.total_lanes * 2),
    )
    assert simulation_key(wider, PRIVATE.key, jobs) != base
    other_program = [compiled_job(make_axpy(length=128)), None]
    assert simulation_key(config, PRIVATE.key, other_program) != base
    moved_image = [compiled_job(make_axpy(length=64), core_id=1), None]
    assert simulation_key(config, PRIVATE.key, moved_image) != base
    # The allocation ingredient namespaces calibration micro co-runs away
    # from ordinary complex runs; the default "" must be the identity.
    assert simulation_key(config, PRIVATE.key, jobs, alloc="") == base
    assert simulation_key(
        config, PRIVATE.key, jobs, alloc="symbiosis-calib:occamy"
    ) != base


def test_key_ignores_removed_kill_switches(config, monkeypatch):
    """The key carries no engine ingredient: nothing reachable through the
    cache can select the reference engine, so the deleted ``REPRO_NO_*``
    variables must not split (or stale-serve) entries."""
    jobs = [compiled_job(make_axpy(length=64)), None]
    base = simulation_key(config, PRIVATE.key, jobs)
    for flag in REMOVED_KILL_SWITCHES:
        monkeypatch.setenv(flag, "1")
        assert simulation_key(config, PRIVATE.key, jobs) == base, flag


def test_version_bump_invalidates_entries(cache, config, small_run, monkeypatch):
    jobs, result = small_run
    key = simulation_key(config, PRIVATE.key, jobs)
    cache.put(key, result)
    monkeypatch.setattr(result_cache, "CACHE_VERSION", result_cache.CACHE_VERSION + 1)
    assert cache.get(key) is None  # payload written by an older version


def test_corrupt_entries_are_silent_misses(cache, config, small_run):
    jobs, result = small_run
    key = simulation_key(config, PRIVATE.key, jobs)
    cache.put(key, result)
    path = cache.path_for(key)
    # Truncation.
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    assert cache.get(key) is None
    # Garbage bytes.
    path.write_bytes(b"not a pickle at all")
    assert cache.get(key) is None
    # A pickle of the wrong shape.
    path.write_bytes(pickle.dumps({"surprise": True}))
    assert cache.get(key) is None
    # Empty file.
    path.write_bytes(b"")
    assert cache.get(key) is None


def test_unwritable_directory_degrades_gracefully(config, small_run):
    jobs, result = small_run
    broken = ResultCache("/proc/no-such-dir/repro-cache")
    key = simulation_key(config, PRIVATE.key, jobs)
    assert broken.put(key, result) is False
    assert broken.get(key) is None
    assert len(broken) == 0
    assert broken.clear() == 0


def test_default_cache_controls(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert result_cache.default_cache() is None
    monkeypatch.delenv("REPRO_NO_CACHE")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "via-env"))
    active = result_cache.default_cache()
    assert active is not None and active.directory == tmp_path / "via-env"
    # configure() pins a directory against later env changes (--cache-dir).
    result_cache.configure(cache_dir=tmp_path / "pinned")
    try:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "other"))
        assert result_cache.default_cache().directory == tmp_path / "pinned"
        result_cache.configure(disabled=True)
        assert result_cache.default_cache() is None
    finally:
        result_cache.configure()  # back to env-driven defaults


def test_clear_sweep_cache_clears_disk_layer(tmp_path, monkeypatch):
    """Satellite 4: clear_sweep_cache drops the on-disk layer too."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sweep"))
    experiments._sweep_cache.clear()
    pair = all_pairs()[0]
    experiments.pair_outcome(pair, scale=SCALE)
    disk = result_cache.default_cache()
    assert len(disk) == len(ALL_POLICIES)
    assert experiments._sweep_cache
    experiments.clear_sweep_cache()
    assert len(disk) == 0
    assert not experiments._sweep_cache


def test_warm_cache_skips_simulation(tmp_path, monkeypatch, config):
    """A second process (simulated by clearing the memo) loads from disk."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
    experiments._sweep_cache.clear()
    pair = all_pairs()[0]
    cold = experiments.pair_outcome(pair, scale=SCALE)
    experiments._sweep_cache.clear()  # forget the in-process layer only
    disk = result_cache.default_cache()
    hits_before = disk.hits
    warm = experiments.pair_outcome(pair, scale=SCALE)
    assert disk.hits == hits_before + len(ALL_POLICIES)
    for key in cold.results:
        assert run_fingerprint(warm.results[key]) == run_fingerprint(cold.results[key])
    experiments._sweep_cache.clear()
