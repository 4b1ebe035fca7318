"""A cached resubmission is served from the entry's summary header.

The daemon's "instant completion" branch reads ``ResultCache.get_summary``
and nothing else, and a miss is answered with the summary its worker sends
back: no ``RunResult`` is unpickled and nothing is fingerprinted on the
event loop, and a resubmission whose key is remembered builds no task.
These tests pin that, that the served summary is still exactly what the
cached result would be summarised to, and that the header never outlives
the entry it describes.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import result_cache
from repro.analysis.result_cache import ResultCache
from repro.cli import main as cli_main
from repro.core.policies import POLICIES_BY_KEY
from repro.service import protocol, server as server_module
from repro.service.server import ServerOptions, SimulationServer
from repro.service.specs import spec_for_motivate, spec_for_pair
from repro.validation import fingerprint

from tests.conftest import run_fresh_python
from tests.service import runners

PAIR = ("spec", 20, 17)
SCALE = 0.05


def _spec(policy="occamy"):
    return spec_for_pair(*PAIR, policy=policy, scale=SCALE)


def _submit(handle, spec):
    with handle.client() as client:
        return client.submit(spec, timeout=120)


@pytest.fixture
def hit_path_spies(monkeypatch):
    """Record every daemon-process call of the things its event loop must
    not do: load a result, summarise or fingerprint one, build a task.

    Workers fork from the daemon, so what they call lands in their own copy
    of the list; only this process's calls are seen here.
    """

    def install(build_task=False):
        calls = []

        def spy(owner, name, describe):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append((name, describe(*args)))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(ResultCache, "get", lambda self, key: key)
        # summarize_result resolves fingerprint_digests in its defining
        # module; the service and cache re-exports are further bindings.
        for module, names in (
            (fingerprint, ("summarize_result", "fingerprint_digests")),
            (protocol, ("summarize_result", "fingerprint_digests")),
            (result_cache, ("summarize_result",)),
        ):
            for name in names:
                spy(module, name, lambda result, *rest: result.policy_key)
        if build_task:
            spy(server_module, "build_task", lambda spec: spec["policy"])
        return calls

    return install


def test_cached_resubmissions_neither_load_nor_fingerprint(
    service_server, hit_path_spies
):
    handle = service_server()
    spec = _spec()
    calls = hit_path_spies()  # before the miss: its worker summarises, not the daemon
    first = _submit(handle, spec)
    assert not first["cached"]
    assert calls == []
    calls = hit_path_spies(build_task=True)  # the key is remembered from here on
    for _ in range(12):
        again = _submit(handle, spec)
        assert again["cached"]
        assert again["result"] == first["result"]
    assert calls == []
    counters = handle.server.counters
    assert (counters["executed"], counters["cache_hits"]) == (1, 12)


@pytest.mark.parametrize("policy", sorted(POLICIES_BY_KEY))
def test_served_hit_equals_summary_of_the_cached_result(service_server, policy):
    handle = service_server()
    spec = _spec(policy)
    first = _submit(handle, spec)
    second = _submit(handle, spec)
    assert not first["cached"] and second["cached"]
    key = second["result"]["key"]
    stored = result_cache.default_cache().get(key)
    expected = protocol.summarize_result(stored, key=key)
    assert set(second["result"]) == set(expected)
    for name, value in expected.items():
        assert second["result"][name] == value, name
    assert first["result"] == expected  # the miss was served the same thing


def test_hit_is_header_only_after_a_restart_on_a_warm_directory(
    service_server, hit_path_spies
):
    spec = _spec("fts")
    first_daemon = service_server()
    first = _submit(first_daemon, spec)
    first_daemon.stop()
    calls = hit_path_spies()
    second_daemon = service_server()
    again = _submit(second_daemon, spec)
    assert again["cached"] and again["result"] == first["result"]
    assert second_daemon.server.counters["executed"] == 0
    assert calls == []


def test_hit_on_an_entry_written_by_a_sweep_in_another_process(
    service_server, hit_path_spies, tmp_path
):
    """The shared cache tier: ``run_tasks`` in a different process writes
    the entry, the daemon serves its header without ever having run it."""
    spec = _spec("vls")
    handle = service_server()  # points REPRO_CACHE_DIR at tmp_path / "cache"
    code = (
        "import json, sys\n"
        "from repro.analysis.parallel import run_tasks\n"
        "from repro.service.specs import build_task\n"
        "run_tasks([build_task(json.loads(sys.argv[1]))], jobs=1)\n"
    )
    run_fresh_python(code, json.dumps(spec))
    assert len(result_cache.default_cache()) == 1
    calls = hit_path_spies()
    served = _submit(handle, spec)
    assert served["cached"]
    assert handle.server.counters["executed"] == 0
    assert calls == []
    key = served["result"]["key"]
    stored = ResultCache(tmp_path / "cache").get(key)
    assert served["result"] == protocol.summarize_result(stored, key=key)


@pytest.mark.parametrize("how", ["repro-cache-clear", "unlink"])
def test_removed_entry_is_executed_again_not_remembered(service_server, how, capsys):
    handle = service_server()
    spec = _spec()
    first = _submit(handle, spec)
    cache = result_cache.default_cache()
    if how == "unlink":
        cache.path_for(first["result"]["key"]).unlink()
    else:
        assert cli_main(["cache", "--cache-dir", str(cache.directory), "clear"]) == 0
        assert "cleared 1 entry" in capsys.readouterr().out
    second = _submit(handle, spec)
    assert not second["cached"]
    assert second["result"] == first["result"]
    assert handle.server.counters["executed"] == 2
    assert _submit(handle, spec)["cached"]


def test_truncated_entry_is_executed_again_and_healed(service_server):
    handle = service_server()
    spec = _spec()
    first = _submit(handle, spec)
    key = first["result"]["key"]
    cache = result_cache.default_cache()
    path = cache.path_for(key)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])  # header intact, body torn
    second = _submit(handle, spec)
    assert not second["cached"]
    assert second["result"] == first["result"]
    assert handle.server.counters["executed"] == 2
    assert result_cache.default_cache().get(key) is not None  # healed
    assert _submit(handle, spec)["cached"]


# --- bounded daemon state on the same path -------------------------------------


@pytest.fixture
def offline_server(tmp_path, monkeypatch) -> SimulationServer:
    """A daemon that is never started (``_admit`` needs no event loop), on
    an empty cache directory so that nothing it admits is a hit."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return SimulationServer(
        ServerOptions(address="unused.sock", runner=runners.fast_runner)
    )


def test_key_memo_is_capped_and_an_evicted_signature_is_rekeyed(
    offline_server, monkeypatch
):
    monkeypatch.setattr(server_module, "KEY_MEMO_KEEP", 3)
    server = offline_server
    specs = [
        spec_for_motivate(policy=policy, scale=scale)
        for policy in ("occamy", "fts")
        for scale in (0.05, 0.06, 0.07)
    ]
    jobs = [server._admit(spec, f"client-{index}") for index, spec in enumerate(specs)]
    assert len(server._key_memo) == 3
    assert list(server._key_memo.values()) == [job.key for job in jobs[-3:]]
    assert jobs[0].signature not in server._key_memo  # oldest went first
    # The evicted signature is hashed again — to the same key, so it still
    # coalesces onto its in-flight job.
    again = server._admit(specs[0], "late")
    assert again is jobs[0]
    assert server._key_memo[jobs[0].signature] == jobs[0].key
    assert len(server._key_memo) == 3


def test_finished_and_cached_jobs_leave_no_record(service_server):
    """A job record lives from admission to its terminal event: nothing
    keeps a finished job, and a cache hit never makes a record."""
    handle = service_server(workers=1)
    first = _submit(handle, _spec())
    assert first["event"] == "done" and not first["cached"]
    assert handle.server._jobs == {} and handle.server._inflight == {}
    again = _submit(handle, _spec())
    assert again["event"] == "done" and again["cached"]
    assert handle.server._jobs == {}
