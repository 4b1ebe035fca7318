"""Fleet tests: one daemon behind the HTTP gateway, and the shared cache.

The gateway adds HTTP and nothing else, so what it serves must be what
the daemon serves: duplicates coalesce in the daemon, repeats are cache
hits, and the bytes match a direct run.  A key executed by one daemon is
a cache hit on every other daemon that shares the cache directory.  The
daemon's commands (``serve``, ``svc-status``, ``submit``) check their
arguments before they bind or connect.
"""

import json
import os
import socket
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigurationError, ServiceUnavailableError
from repro.service.client import ServiceClient
from repro.service.fleet import FleetManager
from repro.service.gateway import MAX_BODY_BYTES, MAX_HEAD_LINE_BYTES
from repro.service.protocol import summarize_result
from repro.service.specs import build_task, spec_for_pair

from tests.service import runners

PAIR = ("spec", 20, 17)
SCALE = 0.05


def _pair_spec(policy="occamy", scale=SCALE, max_cycles=None):
    return spec_for_pair(*PAIR, policy=policy, scale=scale, max_cycles=max_cycles)


# --- fleet manager: one supervised daemon -------------------------------------


def _daemon_env(tmp_path):
    """The spawned daemon imports this checkout and caches under tmp_path."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_fleet_manager_runs_exactly_one_daemon(tmp_path):
    manager = FleetManager(base_dir=tmp_path / "fleet")
    try:
        with pytest.raises(ConfigurationError, match="got a count of 2"):
            manager.start(2)
        assert manager.addresses() == []
    finally:
        manager.stop_all()


def test_fleet_manager_reports_a_daemon_that_dies_at_startup(tmp_path):
    """A daemon that exits at once is reported at once, with its log's
    last line, not after the startup deadline."""
    manager = FleetManager(
        base_dir=tmp_path / "fleet", workers=0, env=_daemon_env(tmp_path)
    )
    begin = time.monotonic()
    with pytest.raises(
        ServiceUnavailableError, match="--workers: must be an integer >= 1, got '0'"
    ):
        manager.start(1, deadline_s=60.0)
    assert time.monotonic() - begin < 10.0
    assert manager.addresses() == []


def _alive(pid):
    """Whether ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        if os.path.isdir("/proc"):
            return False
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def test_fleet_manager_stop_all_leaves_no_process_or_socket(tmp_path):
    """After ``stop_all`` the daemon and its workers have exited and the
    daemon's socket file is gone."""
    manager = FleetManager(
        base_dir=tmp_path / "fleet", workers=1, env=_daemon_env(tmp_path)
    )
    try:
        manager.start(1)
        with ServiceClient(manager.address, timeout=30.0) as client:
            status = client.status()
        assert status["pid"] == manager.process.pid
        pids = [status["pid"], *status["workers"]["pids"]]
        assert len(pids) == 2
    finally:
        manager.stop_all()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and any(_alive(pid) for pid in pids):
        time.sleep(0.1)
    assert [pid for pid in pids if _alive(pid)] == []
    assert not (tmp_path / "fleet" / "daemon.sock").exists()
    assert manager.addresses() == []


# --- gateway: what it serves is what the daemon serves ------------------------


def test_gateway_repeat_is_a_cache_hit(service_server, gateway_for):
    a = service_server(workers=1)
    gw = gateway_for(a.address)
    spec = _pair_spec()
    code, first = gw.submit(spec)
    assert code == 200 and first["event"] == "done" and not first["cached"]
    code, second = gw.submit(spec)
    assert code == 200 and second["event"] == "done" and second["cached"]
    assert a.server.counters["executed"] == 1
    assert a.server.counters["cache_hits"] == 1
    assert second["result"]["fingerprint"] == first["result"]["fingerprint"]


def test_gateway_single_flight_coalesces_across_fleet(
    service_server, gateway_for, monkeypatch
):
    monkeypatch.setenv(runners.SLEEP_ENV, "0.5")
    a = service_server(runner=runners.sleep_runner)
    gw = gateway_for(a.address)
    spec = _pair_spec()
    results = []

    def submit():
        results.append(gw.submit(spec))

    threads = [threading.Thread(target=submit) for _ in range(3)]
    for thread in threads:
        thread.start()
        time.sleep(0.05)  # ensure the first submission is in flight
    for thread in threads:
        thread.join(timeout=30)
    assert len(results) == 3
    events = [payload for code, payload in results]
    assert all(payload["event"] == "done" for payload in events)
    # The gateway forwards all three; the daemon runs the job once and
    # attaches the other two to it.
    assert a.server.counters["executed"] == 1
    assert a.server.counters["coalesced"] == 2
    fingerprints = {
        json.dumps(payload["result"]["fingerprint"], sort_keys=True)
        for payload in events
    }
    assert len(fingerprints) == 1


# --- shared cache tier --------------------------------------------------------


def test_same_key_on_second_daemon_is_cross_daemon_cache_hit(service_server):
    """Satellite: two daemons share one cache dir; the second daemon serves
    the first daemon's result without executing anything."""
    a = service_server(workers=1)
    b = service_server(workers=1)
    spec = _pair_spec()
    with a.client() as client:
        first = client.submit(spec, timeout=120)
    with b.client() as client:
        second = client.submit(spec, timeout=120)
    assert first["event"] == "done" and not first["cached"]
    assert second["event"] == "done" and second["cached"]
    assert a.server.counters["executed"] == 1
    assert b.server.counters["executed"] == 0  # exactly one execution
    assert b.server.counters["cache_hits"] == 1
    assert second["result"]["fingerprint"] == first["result"]["fingerprint"]


def test_gateway_served_result_bit_identical_to_direct_run(
    service_server, gateway_for
):
    """Tentpole identity: gateway-served == daemon-served == direct."""
    from repro.analysis.parallel import execute_task

    a = service_server(workers=1)
    gw = gateway_for(a.address)
    spec = _pair_spec()
    code, served = gw.submit(spec)
    assert code == 200 and served["event"] == "done"
    direct = summarize_result(execute_task(build_task(spec)))
    assert served["result"]["fingerprint"] == direct["fingerprint"]
    assert served["result"]["total_cycles"] == direct["total_cycles"]
    # Submitting straight at the daemon is a cache hit with the same bytes.
    with a.client() as client:
        relayed = client.submit(spec, timeout=120)
    assert relayed["cached"]
    assert relayed["result"]["fingerprint"] == direct["fingerprint"]


# --- gateway: admission control + HTTP protocol -------------------------------


def test_gateway_surfaces_admission_rejection_as_429(
    service_server, gateway_for, monkeypatch
):
    monkeypatch.setenv(runners.SLEEP_ENV, "2.0")
    a = service_server(runner=runners.sleep_runner, workers=1, max_per_client=1)
    gw = gateway_for(a.address)
    blocker = _pair_spec(max_cycles=3_000_001)
    other = _pair_spec(max_cycles=3_000_002)
    results = {}

    def submit_blocker():
        results["blocker"] = gw.submit(blocker, client="greedy")

    thread = threading.Thread(target=submit_blocker)
    thread.start()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if a.server.counters.get("submitted", 0) >= 1:
            break
        time.sleep(0.02)
    code, payload = gw.submit(other, client="greedy", timeout=30)
    assert code == 429
    assert payload["ok"] is False
    assert payload["error"] == "client-quota"
    assert "retry_after_ms" in payload
    assert gw.gateway.counters["rejected"] == 1
    thread.join(timeout=30)
    assert results["blocker"][0] == 200


def _raw_http(port, request: bytes):
    """Send raw request bytes; returns ``(status, json_payload)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        response = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
    assert response, "the gateway closed without a reply"
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def test_gateway_http_error_paths(service_server, gateway_for):
    a = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address)
    code, payload = gw.request("GET", "/nope")
    assert code == 404 and payload["error"] == "not-found"
    code, payload = gw.request("GET", "/submit")
    assert code == 405
    code, payload = gw.request("POST", "/submit", {"no": "spec"})
    assert code == 400 and payload["error"] == "protocol"
    code, payload = gw.request("POST", "/submit", {"spec": {"kind": "bogus"}})
    assert code == 400
    # A malformed request is answered, then the connection is closed.
    post = "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n".format
    for request, status, error in (
        (post(MAX_BODY_BYTES + 1), 413, "payload-too-large"),
        (post("-1"), 400, "protocol"),
        (post("ten"), 400, "protocol"),
        ("GARBAGE\r\n\r\n", 400, "protocol"),
    ):
        code, payload = _raw_http(gw.gateway.bound_port, request.encode())
        assert (code, payload["ok"], payload["error"]) == (status, False, error)
    # A request line or a header with no newline within the stream limit.
    for request in (
        "GET /" + "x" * 70_000 + " HTTP/1.1\r\n\r\n",
        "GET /status HTTP/1.1\r\nX-Big: " + "x" * 70_000 + "\r\n\r\n",
    ):
        code, payload = _raw_http(gw.gateway.bound_port, request.encode())
        assert (code, payload["ok"], payload["error"]) == (400, False, "protocol")
        assert f"over {MAX_HEAD_LINE_BYTES} bytes" in payload["detail"]
    # The health probe and the drain / shutdown routes are gone, not ignored.
    for method, path in (("GET", "/healthz"), ("POST", "/drain"), ("POST", "/shutdown")):
        code, payload = gw.request(method, path)
        assert (code, payload["error"], payload["path"]) == (404, "not-found", path)
    assert not a.server.draining


def test_gateway_status_carries_the_daemon_payload(service_server, gateway_for):
    a = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address)
    for offset in (1, 2):
        code, payload = gw.submit(_pair_spec(max_cycles=3_000_000 + offset))
        assert code == 200
    code, status = gw.request("GET", "/status")
    assert code == 200 and status["ok"]
    assert status["gateway"]["counters"]["submitted"] == 2
    assert status["gateway"]["alive"] is True
    assert status["daemon"]["ok"] and status["daemon"]["op"] == "status"
    assert status["daemon"]["counters"]["submitted"] == 2
    assert "totals" not in status and "shards" not in status
    a.stop()
    code, status = gw.request("GET", "/status")
    assert code == 200 and status["daemon"]["ok"] is False
    assert status["gateway"]["alive"] is False
    code, payload = gw.submit(_pair_spec())
    assert code == 502 and payload["error"] == "unavailable"


# --- repro svc-status: the daemon's table, one route ------------------------


def test_svc_status_prints_the_daemon_table(service_server, capsys):
    """``svc-status`` is the one route to the daemon's table (it replaced
    ``fleet status``); an unreachable daemon exits 2 naming the error."""
    from repro import cli

    a = service_server(runner=runners.fast_runner)
    with a.client() as client:
        assert client.submit(_pair_spec(), timeout=120)["event"] == "done"
    assert cli.main(["svc-status", "--socket", a.address]) == 0
    out = capsys.readouterr().out
    assert f"daemon pid {os.getpid()} " in out  # the in-process test daemon
    assert "submitted=1" in out
    a.stop()
    assert cli.main(["svc-status", "--socket", a.address]) == 2
    assert "error:" in capsys.readouterr().err


def test_serve_rejects_bad_values_before_binding(capsys, monkeypatch):
    """A bad daemon flag is a usage error naming the flag, not a daemon
    serving without a deadline or a late error from the queue."""
    from repro import cli
    from repro.service.server import SimulationServer

    def bind(self):
        raise AssertionError("serve started a daemon")

    monkeypatch.setattr(SimulationServer, "run", bind)
    for argv, named in (
        (["serve", "--job-timeout", "-5"], "--job-timeout: must be a finite number >= 0, got '-5'"),
        (["serve", "--job-timeout", "nan"], "--job-timeout: must be"),
        (["serve", "--job-timeout", "inf"], "'inf'"),
        (["serve", "--workers", "0"], "--workers: must be an integer >= 1, got '0'"),
        (["serve", "--queue-depth", "0"], "--queue-depth: must be"),
        (["serve", "--max-per-client", "x"], "--max-per-client: must be"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err


def test_policy_flags_are_gone_not_ignored(capsys):
    """The daemon schedules one way and has one command, a submit waits
    for its job, and retries and recycling are set in Python."""
    from repro import cli

    for argv, gone in (
        (["serve", "--sched", "fifo"], "unrecognized arguments: --sched"),
        (["fleet", "serve"], "invalid choice: 'fleet'"),
        (
            ["submit", "pair", "spec", "20", "17", "--no-wait"],
            "unrecognized arguments: --no-wait",
        ),
        (["serve", "--max-retries", "2"], "unrecognized arguments: --max-retries"),
        (["serve", "--retry-backoff", "1"], "unrecognized arguments: --retry-backoff"),
        (["serve", "--recycle-after", "8"], "unrecognized arguments: --recycle-after"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert gone in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
@pytest.mark.parametrize(
    "argv", [["svc-status"], ["submit", "pair", "spec", "20", "17"]]
)
def test_client_timeout_must_be_positive_and_finite(capsys, argv, value):
    """A client ``--timeout`` of 0 would make the socket non-blocking, and
    a negative or NaN one crashed in ``settimeout``: all exit 2 at parse
    time, naming the flag, before any connection."""
    from repro import cli

    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--socket", "/nonexistent/daemon.sock", "--timeout", value])
    assert excinfo.value.code == 2
    assert f"argument --timeout: must be a positive finite number, got '{value}'" in (
        capsys.readouterr().err
    )
