"""End-to-end daemon tests: protocol, dedup, failure paths, drain.

The bit-identity tests here are the service analogue of the determinism
suite: a result served through the daemon (worker process, queue, socket)
must carry exactly the fingerprint digests of a direct in-process
``run_policy`` execution.
"""

import json
import os
import signal
import socket as socket_module
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import result_cache
from repro.analysis.parallel import execute_task
from repro.common.errors import AdmissionError, JobFailedError
from repro.service import protocol
from repro.service.client import wait_for_server
from repro.service.protocol import summarize_result
from repro.service.specs import build_task, spec_for_motivate, spec_for_pair

from tests.service import runners

#: Small-but-real workload pair used for bit-identity checks.
PAIR = ("spec", 20, 17)
SCALE = 0.05

#: The paper's three sharing modes.
SHARING_MODES = ("occamy", "fts", "cts")


def _pair_spec(policy="occamy", scale=SCALE):
    return spec_for_pair(*PAIR, policy=policy, scale=scale)


# --- bit-identity with direct execution ---------------------------------------


def test_served_results_bit_identical_across_sharing_modes(service_server):
    """Acceptance: daemon-served == direct Machine.run for all 3 modes."""
    handle = service_server(workers=2)
    for policy in SHARING_MODES:
        spec = _pair_spec(policy=policy)
        with handle.client() as client:
            final = client.submit(spec, timeout=120)
        assert final["event"] == "done"
        direct = summarize_result(execute_task(build_task(spec)))
        assert final["result"]["fingerprint"] == direct["fingerprint"], policy
        assert final["result"]["total_cycles"] == direct["total_cycles"]
        assert final["result"]["core_cycles"] == direct["core_cycles"]


def test_resubmission_is_cache_hit_with_same_fingerprint(service_server):
    handle = service_server()
    spec = _pair_spec()
    with handle.client() as client:
        first = client.submit(spec, timeout=120)
    with handle.client() as client:
        second = client.submit(spec, timeout=120)
    assert not first["cached"]
    assert second["cached"]
    assert second["result"]["fingerprint"] == first["result"]["fingerprint"]
    status = handle.server.status_payload()
    assert status["counters"]["executed"] == 1
    assert status["counters"]["cache_hits"] == 1


# --- dedup / coalescing -------------------------------------------------------


def test_duplicate_concurrent_submission_coalesces(service_server):
    """Acceptance: identical in-flight submissions run exactly once."""
    handle = service_server(workers=1)
    spec = _pair_spec()
    with handle.client() as first, handle.client() as second:
        ack_events = []
        first.send({"op": "submit", "spec": spec, "client": "a", "wait": True})
        ack1 = first.read_message(timeout=30)
        assert ack1["ok"] and not ack1["coalesced"]
        # while job 1 is in flight, an identical spec from another client
        second.send({"op": "submit", "spec": spec, "client": "b", "wait": True})
        ack2 = second.read_message(timeout=30)
        assert ack2["ok"] and ack2["coalesced"]
        assert ack2["job"] == ack1["job"]

        def read_until_done(client):
            event = {}
            while event.get("event") != "done":
                event = client.read_message(timeout=120)
            return event

        done1 = read_until_done(first)
        done2 = read_until_done(second)
    assert done1["result"]["fingerprint"] == done2["result"]["fingerprint"]
    counters = handle.server.status_payload()["counters"]
    assert counters["submitted"] == 2
    assert counters["coalesced"] == 1
    assert counters["executed"] == 1  # provably one execution
    assert counters["completed"] == 1


# --- failure paths ------------------------------------------------------------


def test_worker_killed_mid_job_retries_then_succeeds(service_server, tmp_path, monkeypatch):
    sentinel = tmp_path / "crash-once.sentinel"
    monkeypatch.setenv(runners.SENTINEL_ENV, str(sentinel))
    handle = service_server(runner=runners.crash_once_runner, max_retries=2)
    events = []
    with handle.client() as client:
        final = client.submit(
            spec_for_motivate(scale=0.05), on_event=events.append, timeout=60
        )
    kinds = [event.get("event") for event in events]
    assert "retrying" in kinds
    assert final["event"] == "done"
    assert final["attempts"] == 2
    assert handle.server.counters["retries"] == 1


def test_worker_crash_exhausts_retries_then_reports(service_server):
    handle = service_server(runner=runners.crash_runner, max_retries=1)
    with handle.client() as client:
        with pytest.raises(JobFailedError) as excinfo:
            client.submit(spec_for_motivate(scale=0.05), timeout=60)
    assert "after 2 attempt(s)" in str(excinfo.value)
    assert handle.server.counters["failed"] == 1


def test_job_timeout_retries_then_reports(service_server):
    handle = service_server(
        runner=runners.hang_runner, job_timeout=0.3, max_retries=1
    )
    events = []
    with handle.client() as client:
        with pytest.raises(JobFailedError) as excinfo:
            client.submit(
                spec_for_motivate(scale=0.05), on_event=events.append, timeout=60
            )
    assert "deadline" in str(excinfo.value)
    kinds = [event.get("event") for event in events]
    assert kinds.count("retrying") == 1
    assert kinds.count("started") == 2


def test_deterministic_runner_error_fails_without_retry(service_server):
    handle = service_server(runner=runners.fail_runner, max_retries=3)
    with handle.client() as client:
        with pytest.raises(JobFailedError) as excinfo:
            client.submit(spec_for_motivate(scale=0.05), timeout=60)
    assert "synthetic deterministic failure" in str(excinfo.value)
    # a deterministic failure is never retried
    assert handle.server.counters["retries"] == 0


def test_client_disconnect_mid_stream_job_completes_into_cache(service_server):
    handle = service_server(workers=1)
    spec = _pair_spec()
    client = handle.client()
    client.send({"op": "submit", "spec": spec, "client": "flaky", "wait": True})
    ack = client.read_message(timeout=30)
    assert ack["ok"]
    key = ack["key"]
    client.close()  # walk away mid-stream

    # the job keeps running; its result must land in the persistent cache
    cache = result_cache.default_cache()
    deadline = time.monotonic() + 120.0
    hit = None
    while time.monotonic() < deadline and hit is None:
        hit = cache.get(key)
        time.sleep(0.05)
    assert hit is not None, "result never landed in the cache"
    direct = summarize_result(execute_task(build_task(spec)))
    assert summarize_result(hit)["fingerprint"] == direct["fingerprint"]
    # and the daemon still reports it as completed
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if handle.server.counters["completed"] == 1:
            break
        time.sleep(0.05)
    assert handle.server.counters["completed"] == 1


# --- admission control over the wire -----------------------------------------


def test_queue_full_rejection_is_explicit_backpressure(service_server, monkeypatch):
    monkeypatch.setenv(runners.SLEEP_ENV, "5")
    handle = service_server(
        runner=runners.sleep_runner, workers=1, queue_depth=1, max_per_client=10
    )
    with handle.client() as client:
        # first job occupies the single worker
        first = client.submit(
            spec_for_motivate(policy="occamy", scale=0.05), wait=False, timeout=30
        )
        assert first["ok"]
        _wait_running(handle, jobs=1)
        # second sits in the queue (depth 1)
        second = client.submit(
            spec_for_motivate(policy="fts", scale=0.05), wait=False, timeout=30
        )
        assert second["ok"]
        # third must be rejected loudly, not buffered
        with pytest.raises(AdmissionError) as excinfo:
            client.submit(
                spec_for_motivate(policy="cts", scale=0.05), wait=False, timeout=30
            )
    assert excinfo.value.reason == "queue-full"
    assert handle.server.counters["rejected"] == 1


def test_per_client_quota_rejection(service_server, monkeypatch):
    monkeypatch.setenv(runners.SLEEP_ENV, "5")
    handle = service_server(
        runner=runners.sleep_runner, workers=1, queue_depth=32, max_per_client=2
    )
    policies = ("occamy", "fts", "cts")
    with handle.client() as client:
        for policy in policies[:2]:
            ack = client.submit(
                spec_for_motivate(policy=policy, scale=0.05),
                client="greedy",
                wait=False,
                timeout=30,
            )
            assert ack["ok"]
        with pytest.raises(AdmissionError) as excinfo:
            client.submit(
                spec_for_motivate(policy=policies[2], scale=0.05),
                client="greedy",
                wait=False,
                timeout=30,
            )
        assert excinfo.value.reason == "client-quota"
        # a different client is still admitted
        ack = client.submit(
            spec_for_motivate(policy=policies[2], scale=0.05),
            client="modest",
            wait=False,
            timeout=30,
        )
        assert ack["ok"]


# --- drain & shutdown ---------------------------------------------------------


def test_drain_waits_for_in_flight_jobs_and_rejects_new_work(
    service_server, monkeypatch
):
    monkeypatch.setenv(runners.SLEEP_ENV, "0.5")
    handle = service_server(runner=runners.sleep_runner, workers=1)
    with handle.client() as submitter:
        for policy in ("occamy", "fts"):
            ack = submitter.submit(
                spec_for_motivate(policy=policy, scale=0.05), wait=False, timeout=30
            )
            assert ack["ok"]
        _wait_running(handle, jobs=1)
        with handle.client() as drainer:
            reply = drainer.drain(timeout=60)
        assert reply["ok"]
        assert reply["drained"] >= 1
        # both jobs finished before the drain reply
        assert handle.server.counters["completed"] == 2
        assert handle.server.pool.busy_count() == 0
        # new work is rejected while draining
        with pytest.raises(AdmissionError) as excinfo:
            submitter.submit(
                spec_for_motivate(policy="cts", scale=0.05), wait=False, timeout=30
            )
        assert excinfo.value.reason == "draining"


def test_shutdown_stops_workers(service_server):
    handle = service_server(workers=2)
    pids = handle.server.pool.worker_pids()
    assert len(pids) == 2
    with handle.client() as client:
        client.shutdown()
    handle.thread.join(timeout=15)
    assert not handle.thread.is_alive()
    for pid in pids:
        _wait_dead(pid)


def test_shutdown_leaves_no_traceback_in_the_daemon_log(tmp_path):
    """``svc-status --shutdown`` stops a ``repro serve`` whose log then
    holds its two status lines and no error: the handler of the client
    that asked for the stop is not left to be cancelled."""
    address = str(tmp_path / "svc.sock")
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--workers", "1", "--socket", address],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, text=True,
    )
    try:
        wait_for_server(address, deadline_s=30.0)
        stop = subprocess.run(
            [sys.executable, "-m", "repro", "svc-status", "--shutdown", "--socket", address],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert stop.returncode == 0, stop.stderr
        log, _ = daemon.communicate(timeout=30)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    assert daemon.returncode == 0, log
    assert "repro daemon: stopped" in log
    assert "Traceback" not in log and "Exception in callback" not in log, log


def _gone(pid: int) -> bool:
    """No such process, or a zombie that its new parent has not reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:  # reaped meanwhile (the next probe sees it), or no procfs
        return False


def test_a_killed_daemon_leaves_no_worker_behind(tmp_path):
    """SIGKILL gives the daemon no chance to stop its workers: each one
    notices on its own that the daemon is gone, and exits.  The socket
    file the daemon left behind does not stop a new daemon binding."""
    address = str(tmp_path / "svc.sock")
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def command(*args):
        return [sys.executable, "-m", "repro", *args, "--socket", address]

    def start(workers):
        return subprocess.Popen(
            command("serve", "--workers", str(workers)),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )

    def run(*args):
        done = subprocess.run(command(*args), capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    daemon = start(2)
    pids = []
    try:
        wait_for_server(address, deadline_s=30.0)
        pids = json.loads(run("svc-status", "--json"))["workers"]["pids"]
        assert len(pids) == 2
        daemon.kill()
        daemon.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(_gone(pid) for pid in pids):
            time.sleep(0.05)
        assert [pid for pid in pids if not _gone(pid)] == []
        restarted = start(1)
        try:
            wait_for_server(address, deadline_s=30.0)
            run("svc-status", "--shutdown")
            assert restarted.wait(timeout=30) == 0
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.wait()
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        for pid in pids:  # never leak a worker past the test, even on failure
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


# --- the daemon waits, it does not poll ----------------------------------------


def test_idle_daemon_never_polls_its_workers(service_server, monkeypatch):
    handle = service_server(runner=runners.fast_runner)
    with handle.client() as client:
        assert client.submit(spec_for_motivate(scale=0.05), timeout=30)["event"] == "done"
    polls = []
    pool = handle.server.pool
    real_poll = pool.poll

    def counting_poll():
        polls.append(time.monotonic())
        return real_poll()

    monkeypatch.setattr(pool, "poll", counting_poll)
    time.sleep(0.5)
    assert polls == []


def test_a_miss_on_an_idle_worker_waits_for_no_tick(service_server):
    """The result is read when the worker's pipe turns readable: a miss
    that the runner answers at once is back in well under a poll tick."""
    handle = service_server(runner=runners.fast_runner, workers=1)
    latencies = []
    with handle.client() as client:
        for index in range(20):
            spec = _pair_spec(scale=SCALE + index / 1000)
            start = time.perf_counter()
            final = client.submit(spec, timeout=30)
            latencies.append(time.perf_counter() - start)
            assert final["event"] == "done" and not final["cached"]
    assert handle.server.counters["executed"] == 20
    assert statistics.median(latencies) < 0.020, latencies


# --- misc endpoints -----------------------------------------------------------


def test_status_and_unknown_ops(service_server, monkeypatch):
    monkeypatch.setenv(runners.SLEEP_ENV, "1.0")
    handle = service_server(runner=runners.sleep_runner, workers=1)
    with handle.client() as client:
        for policy in ("occamy", "fts"):
            ack = client.submit(
                spec_for_motivate(policy=policy, scale=0.05), wait=False, timeout=30
            )
            assert ack["ok"]
        _wait_running(handle, jobs=1)

        status = client.status()
        assert status["ok"]
        assert status["workers"]["size"] == 1
        assert status["workers"]["busy"] == 1
        assert status["queue"]["depth"] == 1
        assert status["counters"]["submitted"] == 2

        # unknown ops produce structured errors; watch / result / cancel
        # are not ops (a job is followed on the connection that submits it)
        for op in ("frobnicate", "watch", "result", "cancel"):
            reply = client.request(op, job=ack["job"])
            assert not reply["ok"] and reply["error"] == "protocol", op


def test_frames_up_to_the_line_limit_are_served_and_longer_ones_refused(
    service_server,
):
    """The daemon reads frames up to ``protocol.MAX_LINE_BYTES``, past
    asyncio's 64 KiB default, and answers a longer one before hanging up."""
    handle = service_server(workers=1)
    with handle.client() as client:
        reply = client.request("ping", padding="x" * 70_000)
    assert reply["ok"] and reply["op"] == "ping"

    frame = protocol.encode_message(
        {"op": "ping", "padding": "x" * protocol.MAX_LINE_BYTES}
    )
    sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(handle.address)
    try:
        sock.sendall(frame)
    except OSError:
        pass  # the daemon may hang up before the whole frame is sent
    buffer = b""
    while b"\n" not in buffer:
        chunk = sock.recv(4096)
        assert chunk, "the daemon closed without a reply"
        buffer += chunk
    sock.close()
    reply = json.loads(buffer.split(b"\n", 1)[0])
    assert reply["ok"] is False and reply["error"] == "protocol"


def test_submit_json_protocol_is_line_delimited(service_server):
    """The wire format is plain enough for any client: raw socket + JSON."""
    handle = service_server(workers=1)
    sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(handle.address)
    sock.sendall(json.dumps({"op": "ping"}).encode() + b"\n")
    buffer = b""
    while b"\n" not in buffer:
        buffer += sock.recv(4096)
    reply = json.loads(buffer.split(b"\n", 1)[0])
    assert reply["ok"]
    assert reply["pid"] == os.getpid()  # the daemon thread shares our pid
    sock.close()


# --- helpers ------------------------------------------------------------------


def _wait_running(handle, jobs: int, deadline_s: float = 20.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        if handle.server.pool.busy_count() >= jobs:
            return
        time.sleep(0.01)
    raise AssertionError(f"never saw {jobs} running job(s)")


def _wait_dead(pid: int, deadline_s: float = 10.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise AssertionError(f"worker {pid} still alive")
