"""The persistent result cache: keys, round-trips, corruption tolerance."""

from __future__ import annotations

import dataclasses
import io
import pickle
import random

import pytest

from repro.analysis import experiments, result_cache
from repro.analysis.result_cache import ResultCache, simulation_key
from repro.common.config import experiment_config
from repro.compiler.pipeline import build_image
from repro.core.machine import run_policy
from repro.core.policies import ALL_POLICIES, PRIVATE
from repro.validation.fingerprint import summarize_result
from repro.workloads.pairs import all_pairs

from tests.conftest import (
    REMOVED_KILL_SWITCHES,
    compiled_job,
    make_axpy,
    run_fingerprint,
    run_fresh_python,
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
    # The summary stored in front of the result is the one the result
    # would be summarised to, and reading it counts like any other hit.
    assert cache.get_summary(key) == summarize_result(result, key)
    assert cache.get_summary("0" * 64) is None
    assert cache.hits == 2 and cache.misses == 2


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
    # An unfilled image keys by its recipe: another seed is another key.
    reseeded = dataclasses.replace(jobs[0], image=build_image(make_axpy(length=64), seed=1))
    assert simulation_key(config, PRIVATE.key, [reseeded, None]) != base
    # A filled image keys by its bytes: equal until one element differs.
    filled = [compiled_job(make_axpy(length=64)) for _ in range(2)]
    for job in filled:
        job.image.array("x")
    assert simulation_key(config, PRIVATE.key, filled[:1]) == simulation_key(
        config, PRIVATE.key, filled[1:]
    )
    filled[1].image.array("y")[7] += 1.0
    assert simulation_key(config, PRIVATE.key, filled[:1]) != simulation_key(
        config, PRIVATE.key, filled[1:]
    )


#: ``task_key`` of two fixed tasks under ``CACHE_VERSION`` 8: a refactor
#: that moves one moves every cache entry a user holds.  Change these only
#: together with ``CACHE_VERSION``.
PINNED_KEYS = {
    "motivate": "27a7e95a07b96ccbf8b2d0a736982e01af0f039b2aa77b3ec344c596871b1184",
    "group": "c486c117c53677c8ad281a7c4210f2142027fa5499ce1274b3897d2e6ce64fa1",
}


def test_keys_are_pinned_to_the_v8_format():
    from repro.analysis.parallel import SimTask, task_key

    assert result_cache.CACHE_VERSION == 8
    motivate = SimTask(
        policy_key="occamy", scale=0.05, config=experiment_config(), kind="motivate"
    )
    group = SimTask(
        policy_key="fts", scale=0.05, config=experiment_config(num_cores=2),
        kind="group", group=(9, 13),
    )
    assert task_key(motivate) == PINNED_KEYS["motivate"]
    assert task_key(group) == PINNED_KEYS["group"]


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
    assert cache.get_summary(key) is None


def test_corrupt_entries_are_silent_misses(cache, config, small_run):
    jobs, result = small_run
    key = simulation_key(config, PRIVATE.key, jobs)
    cache.put(key, result)
    path = cache.path_for(key)
    # Truncation.
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    assert cache.get(key) is None and cache.get_summary(key) is None
    # Garbage bytes.
    path.write_bytes(b"not a pickle at all")
    assert cache.get(key) is None and cache.get_summary(key) is None
    # A pickle of the wrong shape.
    path.write_bytes(pickle.dumps({"surprise": True}))
    assert cache.get(key) is None and cache.get_summary(key) is None
    # Empty file.
    path.write_bytes(b"")
    assert cache.get(key) is None and cache.get_summary(key) is None


def _split(entry: bytes):
    """(prefix, summary frame, result frame) of one well-formed entry."""
    prefix = result_cache._PREFIX.size
    stream = io.BytesIO(entry[prefix:])
    pickle.load(stream)
    body = prefix + stream.tell()
    return entry[:prefix], entry[prefix:body], entry[body:]


def _prefixed(*frames: bytes, version=None) -> bytes:
    """``frames`` behind a prefix that is right about their total length."""
    version = result_cache.CACHE_VERSION if version is None else version
    body = b"".join(frames)
    pack = result_cache._PREFIX.pack
    return pack(version, result_cache._PREFIX.size + len(body)) + body


def _cut_body(keep):
    def damage(entry, result):
        prefix, summary, body = _split(entry)
        return prefix + summary + body[: keep(len(body))]

    return damage


#: name -> (well-formed entry bytes, the result in it) -> damaged bytes.
DAMAGE = {
    "empty-file": lambda entry, result: b"",
    "prefix-cut-short": lambda entry, result: entry[:5],
    "prefix-only": lambda entry, result: _split(entry)[0],
    "summary-cut-short": lambda entry, result: entry[: result_cache._PREFIX.size + 9],
    "summary-only": _cut_body(lambda size: 0),
    "body-cut-at-1": _cut_body(lambda size: 1),
    "body-cut-at-half": _cut_body(lambda size: size // 2),
    "body-cut-last-byte": _cut_body(lambda size: size - 1),
    "trailing-bytes": lambda entry, result: entry + b"\x00",
    "old-single-frame-layout": lambda entry, result: pickle.dumps(
        (result_cache.CACHE_VERSION, result), protocol=pickle.HIGHEST_PROTOCOL
    ),
    # The version is stored once, in the prefix, and covers both frames.
    "wrong-version": lambda entry, result: _prefixed(
        *_split(entry)[1:], version=result_cache.CACHE_VERSION + 1
    ),
    "unpatched-placeholder-prefix": lambda entry, result: (
        result_cache._PREFIX.pack(0, 0) + entry[result_cache._PREFIX.size :]
    ),
    "summary-not-a-dict": lambda entry, result: _prefixed(
        pickle.dumps(["not", "a", "dict"]), _split(entry)[2]
    ),
    "summary-not-a-pickle": lambda entry, result: _prefixed(
        b"\xff" * 64, _split(entry)[2]
    ),
}
DAMAGE.update(
    {
        f"garbage-{size}": lambda entry, result, size=size: random.Random(
            size
        ).randbytes(size)
        for size in (1, 11, 12, 13, 200, 5000)
    }
)


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_entry_misses_in_both_readers_then_heals(
    cache, config, small_run, damage
):
    """A torn or foreign entry is a miss for ``get`` *and* ``get_summary``
    (which must know it without reading the result frame), and the next
    ``put`` under the same key overwrites it."""
    jobs, result = small_run
    key = simulation_key(config, PRIVATE.key, jobs)
    assert cache.put(key, result)
    path = cache.path_for(key)
    path.write_bytes(DAMAGE[damage](path.read_bytes(), result))

    assert cache.get(key) is None
    assert cache.get_summary(key) is None
    assert (cache.hits, cache.misses) == (0, 2)

    assert cache.put(key, result)
    assert run_fingerprint(cache.get(key)) == run_fingerprint(result)
    assert cache.get_summary(key) == summarize_result(result, key)
    assert (cache.hits, cache.misses) == (2, 2)


def test_get_summary_never_reads_the_result_frame(cache, config, small_run):
    """The one damage ``get_summary`` cannot see is the one that proves it
    reads the header only: a result frame overwritten in place, length
    intact.  ``get`` still refuses it."""
    jobs, result = small_run
    key = simulation_key(config, PRIVATE.key, jobs)
    cache.put(key, result)
    path = cache.path_for(key)
    prefix, summary, body = _split(path.read_bytes())
    assert len(prefix) + len(summary) < 2048 < len(body)
    path.write_bytes(prefix + summary + b"\xff" * len(body))
    assert cache.get_summary(key) == summarize_result(result, key)
    assert cache.get(key) is None
    # Same length, a well-formed pickle, but not of a RunResult.
    other = pickle.dumps({"surprise": True})
    path.write_bytes(_prefixed(summary, other))
    assert cache.get_summary(key) is not None
    assert cache.get(key) is None


def test_put_leaves_no_temp_file_and_one_layout(cache, config, small_run):
    jobs, result = small_run
    key = simulation_key(config, PRIVATE.key, jobs)
    cache.put(key, result)
    cache.put(key, result)  # overwrite in place
    assert [p.name for p in cache.directory.iterdir()] == [f"{key}.pkl"]
    entry = cache.path_for(key).read_bytes()
    version, length = result_cache._PREFIX.unpack_from(entry)
    assert (version, length) == (result_cache.CACHE_VERSION, len(entry))
    assert b"".join(_split(entry)) == entry


def test_result_cache_does_not_import_the_service_package():
    """Sweep workers import the cache; the daemon stack must not ride along."""
    code = (
        "import sys, repro.analysis.result_cache\n"
        "assert not [m for m in sys.modules if m.startswith('repro.service')]\n"
    )
    run_fresh_python(code)


def test_unwritable_directory_degrades_gracefully(config, small_run):
    jobs, result = small_run
    broken = ResultCache("/proc/no-such-dir/repro-cache")
    key = simulation_key(config, PRIVATE.key, jobs)
    assert broken.put(key, result) is None
    assert broken.get(key) is None
    assert broken.get_summary(key) is None
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
