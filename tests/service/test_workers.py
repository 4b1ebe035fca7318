"""Worker-pool supervision: completion, crash, timeout, recycling."""

import os
import signal
import time

import pytest

from repro.common.errors import ConfigurationError
from repro.service.workers import WorkerPool

from tests.service import runners


def _wait_events(pool, want, deadline_s=20.0):
    """Poll until ``want`` events have arrived (or fail the test)."""
    events = []
    deadline = time.monotonic() + deadline_s
    while len(events) < want and time.monotonic() < deadline:
        events.extend(pool.poll())
        time.sleep(0.01)
    assert len(events) >= want, f"only {len(events)} events before deadline"
    return events


@pytest.fixture
def pool_factory():
    pools = []

    def start(**kwargs) -> WorkerPool:
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("runner", runners.fast_runner)
        kwargs.setdefault("job_timeout", 30.0)
        pool = WorkerPool(**kwargs)
        pool.start()
        pools.append(pool)
        return pool

    yield start
    for pool in pools:
        pool.stop()


def test_dispatch_and_done_event(pool_factory):
    pool = pool_factory(workers=2)
    assert pool.idle_count() == 2
    pool.dispatch("job-1", None)
    assert pool.busy_count() == 1
    (event,) = _wait_events(pool, 1)
    assert event.kind == "done"
    assert event.job_id == "job-1"
    assert event.result["total_cycles"] == 1000
    assert pool.idle_count() == 2


@pytest.mark.parametrize("cached", [True, False], ids=["cache", "no-cache"])
def test_default_runner_sends_back_the_summary_not_the_run(
    pool_factory, tmp_path, monkeypatch, cached
):
    """What crosses worker -> daemon for a miss is ``summarize_result`` of
    the run — the dict ``ResultCache.put`` stored in front of the entry, or
    with the cache off the worker's own, keyless — never the ~1 MB run."""
    import pickle

    from repro.analysis.parallel import execute_task, task_key
    from repro.analysis.result_cache import ResultCache
    from repro.service.protocol import summarize_result
    from repro.service.specs import build_task, spec_for_pair
    from repro.service.workers import run_cached_task

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    if not cached:
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
    task = build_task(spec_for_pair("spec", 20, 17, scale=0.05))
    pool = pool_factory(runner=run_cached_task, job_timeout=120.0)
    pool.dispatch("job-1", task)
    (event,) = _wait_events(pool, 1, deadline_s=120.0)
    assert event.kind == "done"
    assert type(event.result) is dict
    assert len(pickle.dumps(event.result)) <= 8 * 1024
    if cached:
        key = task_key(task)
        assert event.result == summarize_result(ResultCache(tmp_path / "cache").get(key), key)
    else:
        assert event.result == summarize_result(execute_task(task))
        assert not (tmp_path / "cache").exists()


def test_runner_exception_is_error_event(pool_factory):
    pool = pool_factory(runner=runners.fail_runner)
    pool.dispatch("job-1", None)
    (event,) = _wait_events(pool, 1)
    assert event.kind == "error"
    assert "synthetic deterministic failure" in event.error
    # the worker survives a runner exception
    assert pool.idle_count() == 1


def test_crashed_worker_reported_and_respawned(pool_factory):
    pool = pool_factory(runner=runners.crash_runner)
    pid_before = pool.worker_pids()[0]
    pool.dispatch("job-1", None)
    (event,) = _wait_events(pool, 1)
    assert event.kind == "crashed"
    assert "mid-job" in event.error
    # a fresh worker replaced the dead one
    assert pool.idle_count() == 1
    assert pool.worker_pids()[0] != pid_before


def test_externally_killed_worker_is_crash(pool_factory, monkeypatch):
    monkeypatch.setenv(runners.SLEEP_ENV, "30")
    pool = pool_factory(runner=runners.sleep_runner)
    pid = pool.dispatch("job-1", None)
    time.sleep(0.2)
    os.kill(pid, signal.SIGKILL)
    (event,) = _wait_events(pool, 1)
    assert event.kind == "crashed"
    assert event.job_id == "job-1"
    assert pool.idle_count() == 1


def test_job_timeout_kills_worker(pool_factory):
    pool = pool_factory(runner=runners.hang_runner, job_timeout=0.3)
    pool.dispatch("job-1", None)
    events = _wait_events(pool, 1)
    assert events[0].kind == "timeout"
    assert "deadline" in events[0].error
    assert pool.idle_count() == 1  # respawned


def test_worker_recycled_after_n_jobs(pool_factory):
    pool = pool_factory(recycle_after=2)
    first_pid = pool.worker_pids()[0]
    for index in range(2):
        pool.dispatch(f"job-{index}", None)
        (event,) = _wait_events(pool, 1)
        assert event.kind == "done"
    # the worker retired itself after its second job; poll respawns it
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        pool.poll()
        if pool.recycled >= 1 and pool.idle_count() == 1:
            break
        time.sleep(0.01)
    assert pool.recycled == 1
    assert pool.worker_pids()[0] != first_pid
    # and the fresh worker still serves jobs
    pool.dispatch("job-after", None)
    (event,) = _wait_events(pool, 1)
    assert event.kind == "done"


def test_completed_job_never_misreported_as_timeout(pool_factory):
    # result drained before deadline check: even with an absurdly small
    # timeout, a finished job must surface as done once its result is in.
    pool = pool_factory(job_timeout=0.001)
    pool.dispatch("job-1", None)
    time.sleep(0.3)  # give the fast runner ample time to finish
    events = pool.poll()
    assert [event.kind for event in events] == ["done"]


def test_pool_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        WorkerPool(workers=0)
    with pytest.raises(ConfigurationError):
        WorkerPool(job_timeout=-1.0)
    with pytest.raises(ConfigurationError):
        WorkerPool(recycle_after=0)


def test_stop_leaves_no_processes(pool_factory):
    pool = pool_factory(workers=2)
    pids = pool.worker_pids()
    pool.stop()
    deadline = time.monotonic() + 5.0

    def alive(pid):
        try:
            os.kill(pid, 0)
            return True
        except ProcessLookupError:
            return False
        except PermissionError:  # pragma: no cover
            return True

    while time.monotonic() < deadline and any(alive(pid) for pid in pids):
        time.sleep(0.05)
    assert not any(alive(pid) for pid in pids)
