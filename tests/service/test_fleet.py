"""Fleet tests: one daemon behind the HTTP gateway, and the shared cache.

The gateway adds HTTP and nothing else, so what it serves must be what
the daemon serves: duplicates coalesce in the daemon, repeats are cache
hits, and the bytes match a direct run.  A key executed by one daemon is
a cache hit on every other daemon that shares the cache directory.
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
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    manager = FleetManager(base_dir=tmp_path / "fleet", workers=0, env=env)
    begin = time.monotonic()
    with pytest.raises(ServiceUnavailableError, match="workers must be positive"):
        manager.start(1, deadline_s=60.0)
    assert time.monotonic() - begin < 10.0
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
        "GET /healthz HTTP/1.1\r\nX-Big: " + "x" * 70_000 + "\r\n\r\n",
    ):
        code, payload = _raw_http(gw.gateway.bound_port, request.encode())
        assert (code, payload["ok"], payload["error"]) == (400, False, "protocol")
        assert f"over {MAX_HEAD_LINE_BYTES} bytes" in payload["detail"]
    code, payload = gw.request("GET", "/healthz")
    assert code == 200 and payload == {"ok": True, "daemon": a.address}


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
    code, payload = gw.request("GET", "/healthz")
    assert code == 503 and not payload["ok"]
    code, payload = gw.submit(_pair_spec())
    assert code == 502 and payload["error"] == "unavailable"


def test_gateway_drain_reaches_the_daemon(service_server, gateway_for):
    a = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address)
    code, payload = gw.request("POST", "/drain")
    assert code == 200 and payload["ok"]
    assert a.server.draining


# --- repro fleet status: the gateway line, then the daemon's table -----------


def test_fleet_status_prints_the_daemon_table(service_server, gateway_for, capsys):
    from repro import cli

    a = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address)
    code, _ = gw.submit(_pair_spec())
    assert code == 200
    assert cli.main(["fleet", "status", "--http", gw.url]) == 0
    out = capsys.readouterr().out
    assert "(daemon alive)" in out
    assert f"daemon pid {os.getpid()} " in out  # the in-process test daemon
    assert "submitted=1" in out
    a.stop()
    assert cli.main(["fleet", "status", "--http", gw.url]) == 0
    out = capsys.readouterr().out
    assert "(daemon down)" in out
    assert "daemon: UNREACHABLE" in out


def test_fleet_serve_rejects_bad_values_before_spawning(capsys, monkeypatch):
    from repro import cli

    def spawn(*args, **kwargs):
        raise AssertionError("fleet serve spawned a daemon")

    monkeypatch.setattr(FleetManager, "start", spawn)
    for argv, named in (
        (["fleet", "serve", "--workers", "0"], "--workers: must be an integer >= 1, got '0'"),
        (["fleet", "serve", "--queue-depth", "0"], "--queue-depth: must be"),
        (["fleet", "serve", "--max-per-client", "-3"], "--max-per-client: must be"),
        (["fleet", "serve", "--http", "127.0.0.1:70000"], "'127.0.0.1:70000'"),
        (["fleet", "serve", "--http", "localhost"], "'localhost'"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err


def test_policy_flags_are_gone_not_ignored(capsys):
    """The daemon schedules one way, the gateway fronts one daemon, and a
    submit waits for its job."""
    from repro import cli

    for argv, gone in (
        (["serve", "--sched", "fifo"], "unrecognized arguments: --sched"),
        (["fleet", "serve", "--sched", "fifo"], "unrecognized arguments: --sched"),
        (["fleet", "serve", "--routing", "hash"], "unrecognized arguments: --routing"),
        (
            ["fleet", "serve", "--steal-threshold", "4"],
            "unrecognized arguments: --steal-threshold",
        ),
        (["fleet", "scale", "3"], "invalid choice: 'scale'"),
        (["fleet", "serve", "-n", "2"], "unrecognized arguments: -n 2"),
        (
            ["submit", "pair", "spec", "20", "17", "--no-wait"],
            "unrecognized arguments: --no-wait",
        ),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert gone in capsys.readouterr().err
