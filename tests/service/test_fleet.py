"""Fleet tests: ring routing, coalescing at the home shard, failover,
shared cache.

The failover and cross-daemon cache tests are the satellite coverage from
ISSUE 7: a daemon dying mid-job must not change the bytes a client sees
(the gateway re-routes and the fingerprint matches a direct run), and a
key executed on one shard must be a cache hit on every other shard.
"""

import json
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.common.errors import ConfigurationError
from repro.service.fleet import (
    HashRing,
    aggregate_statuses,
    choose_shard,
)
from repro.service.gateway import MAX_BODY_BYTES
from repro.service.protocol import summarize_result
from repro.service.specs import build_task, normalize_spec, spec_for_pair, task_signature

from tests.service import runners

PAIR = ("spec", 20, 17)
SCALE = 0.05


def _pair_spec(policy="occamy", scale=SCALE, max_cycles=None):
    return spec_for_pair(*PAIR, policy=policy, scale=scale, max_cycles=max_cycles)


def _spec_homing_on(gateway, shard_name, policy="occamy"):
    """A spec whose consistent-hash home is ``shard_name`` on this ring."""
    for max_cycles in range(3_000_000, 3_000_200):
        spec = _pair_spec(policy=policy, max_cycles=max_cycles)
        signature = task_signature(normalize_spec(spec))
        if gateway.gateway.ring.node_for(signature) == shard_name:
            return spec
    raise AssertionError(f"no spec homing on {shard_name} in 200 candidates")


# --- hash ring ----------------------------------------------------------------


def test_ring_is_stable_across_instances():
    nodes = ["shard0", "shard1", "shard2"]
    first = HashRing(nodes)
    second = HashRing(list(reversed(nodes)))
    for i in range(200):
        key = f"key-{i}"
        assert first.node_for(key) == second.node_for(key)


def test_ring_balances_keys():
    ring = HashRing([f"shard{i}" for i in range(4)])
    counts = {}
    for i in range(2000):
        home = ring.node_for(f"key-{i}")
        counts[home] = counts.get(home, 0) + 1
    for node, count in counts.items():
        assert count > 2000 * 0.10, f"{node} got only {count}/2000 keys"


def test_ring_removal_only_remaps_lost_node():
    before = HashRing(["shard0", "shard1", "shard2", "shard3"])
    after = HashRing(["shard0", "shard1", "shard3"])  # shard2 died
    moved = 0
    for i in range(1000):
        key = f"key-{i}"
        old = before.node_for(key)
        if old == "shard2":
            moved += 1
            continue
        # Keys on surviving shards must not move.
        assert after.node_for(key) == old, key
    assert 0 < moved < 1000


def test_ring_preference_covers_all_nodes_in_order():
    ring = HashRing(["a", "b", "c"])
    pref = ring.preference("some-key")
    assert sorted(pref) == ["a", "b", "c"]
    assert pref[0] == ring.node_for("some-key")


def test_empty_ring_rejected():
    with pytest.raises(ConfigurationError):
        HashRing([])


# --- routing ------------------------------------------------------------------


def _shards(**inflight):
    return {
        name: SimpleNamespace(name=name, alive=True, inflight=load)
        for name, load in inflight.items()
    }


def test_hash_routing_follows_ring_preference():
    shards = _shards(a=0, b=0, c=0)
    ring = HashRing(shards)
    pref = ring.preference("sig")
    assert choose_shard(ring, "sig", shards).name == pref[0]
    # Excluding the home (failover) walks to the next shard in ring order.
    assert choose_shard(ring, "sig", shards, exclude={pref[0]}).name == pref[1]


def test_dead_shards_are_never_chosen():
    shards = _shards(a=0, b=0)
    for shard in shards.values():
        shard.alive = False
    ring = HashRing(shards)
    assert choose_shard(ring, "sig", shards) is None


# --- status aggregation -------------------------------------------------------


def test_aggregate_statuses_sums_and_rates():
    ok = {
        "ok": True,
        "queue": {"depth": 3},
        "workers": {"busy": 1, "size": 2},
        "counters": {"submitted": 10, "cache_hits": 4, "retries": 1},
    }
    other = {
        "ok": True,
        "queue": {"depth": 1},
        "workers": {"busy": 2, "size": 2},
        "counters": {"submitted": 10, "cache_hits": 6},
    }
    totals = aggregate_statuses([ok, other, None, {"ok": False, "error": "x"}])
    assert totals["shards"] == 4
    assert totals["reachable"] == 2
    assert totals["queued"] == 4
    assert totals["busy_workers"] == 3
    assert totals["workers"] == 4
    assert totals["counters"]["submitted"] == 20
    assert totals["counters"]["retries"] == 1
    assert totals["cache_hit_rate"] == pytest.approx(0.5)


def test_aggregate_statuses_empty():
    totals = aggregate_statuses([])
    assert totals["reachable"] == 0
    assert totals["cache_hit_rate"] == 0.0


# --- gateway: routing + warm-shard affinity -----------------------------------


def test_gateway_routes_and_repeats_land_on_same_shard(service_server, gateway_for):
    a = service_server(runner=runners.fast_runner)
    b = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address, b.address)
    spec = _pair_spec()
    code, first = gw.submit(spec)
    assert code == 200 and first["event"] == "done"
    code, second = gw.submit(spec)
    assert code == 200 and second["event"] == "done"
    # Consistent hashing: the repeat lands on the warm shard.
    assert first["gateway"]["shard"] == second["gateway"]["shard"]
    assert first["gateway"]["failovers"] == 0
    expected = runners.fast_runner(build_task(spec))
    assert first["result"]["fingerprint"] == expected["fingerprint"]
    assert second["result"]["fingerprint"] == expected["fingerprint"]


def test_gateway_single_flight_coalesces_across_fleet(
    service_server, gateway_for, monkeypatch
):
    monkeypatch.setenv(runners.SLEEP_ENV, "0.5")
    a = service_server(runner=runners.sleep_runner)
    b = service_server(runner=runners.sleep_runner)
    gw = gateway_for(a.address, b.address)
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
    # The gateway forwards all three to one home shard; that daemon runs
    # the job once and attaches the other two to it.
    executed = sum(handle.server.counters["executed"] for handle in (a, b))
    coalesced = sum(handle.server.counters["coalesced"] for handle in (a, b))
    assert executed == 1
    assert coalesced == 2
    assert len({payload["gateway"]["shard"] for payload in events}) == 1
    fingerprints = {
        json.dumps(payload["result"]["fingerprint"], sort_keys=True)
        for payload in events
    }
    assert len(fingerprints) == 1


# --- gateway: health-checked failover -----------------------------------------


def test_gateway_fails_over_when_shard_dies_mid_job(
    service_server, gateway_for, monkeypatch
):
    """Satellite: kill a daemon mid-job; the gateway re-routes and the
    result fingerprint is identical to a direct run."""
    monkeypatch.setenv(runners.SLEEP_ENV, "30.0")
    sleeper = service_server(runner=runners.sleep_runner)
    healthy = service_server(runner=runners.fast_runner)
    gw = gateway_for(sleeper.address, healthy.address)
    spec = _spec_homing_on(gw, "shard0")  # shard0 == sleeper

    outcome = {}

    def submit():
        outcome["response"] = gw.submit(spec, timeout=60)

    thread = threading.Thread(target=submit)
    thread.start()
    # Wait until the job is actually running on the sleeper shard.
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if sleeper.server.counters.get("submitted", 0) >= 1:
            break
        time.sleep(0.02)
    else:
        raise AssertionError("job never reached the sleeper shard")
    sleeper.stop()  # daemon dies mid-run
    thread.join(timeout=30)
    assert "response" in outcome, "gateway never answered"
    code, payload = outcome["response"]
    assert code == 200 and payload["event"] == "done"
    assert payload["gateway"]["shard"] == "shard1"
    assert payload["gateway"]["failovers"] == 1
    assert gw.gateway.counters["failovers"] == 1
    assert gw.gateway.shards["shard0"].alive is False
    expected = runners.fast_runner(build_task(spec))
    assert payload["result"]["fingerprint"] == expected["fingerprint"]


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
    b = service_server(workers=1)
    gw = gateway_for(a.address, b.address)
    spec = _pair_spec()
    code, served = gw.submit(spec)
    assert code == 200 and served["event"] == "done"
    direct = summarize_result(execute_task(build_task(spec)))
    assert served["result"]["fingerprint"] == direct["fingerprint"]
    assert served["result"]["total_cycles"] == direct["total_cycles"]
    # Hitting the *other* shard directly is a cross-shard cache hit with
    # the same bytes.
    other = a if served["gateway"]["shard"] == "shard1" else b
    with other.client() as client:
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
    code, payload = gw.request("GET", "/healthz")
    assert code == 200 and payload["ok"] and payload["alive"] == 1


def test_gateway_status_aggregates_and_marks_dead_shards(
    service_server, gateway_for
):
    a = service_server(runner=runners.fast_runner)
    b = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address, b.address)
    for offset in (1, 2):
        code, payload = gw.submit(_pair_spec(max_cycles=3_000_000 + offset))
        assert code == 200
    code, status = gw.request("GET", "/status")
    assert code == 200 and status["ok"]
    assert status["totals"]["reachable"] == 2
    assert status["totals"]["counters"]["submitted"] == 2
    assert status["gateway"]["counters"]["submitted"] == 2
    assert len(status["shards"]) == 2
    b.stop()
    code, status = gw.request("GET", "/status")
    assert status["totals"]["reachable"] == 1
    dead = [entry for entry in status["shards"] if not entry["alive"]]
    assert len(dead) == 1 and dead[0]["shard"] == "shard1"
    code, payload = gw.request("GET", "/healthz")
    assert code == 200 and payload["alive"] == 1
    a.stop()
    gw.request("GET", "/status")
    code, payload = gw.request("GET", "/healthz")
    assert code == 503 and not payload["ok"]


def test_gateway_drain_fans_out(service_server, gateway_for):
    a = service_server(runner=runners.fast_runner)
    b = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address, b.address)
    code, payload = gw.request("POST", "/drain")
    assert code == 200 and payload["ok"]
    assert a.server.draining and b.server.draining


# --- repro fleet status (the one fleet table) --------------------------------


def test_fleet_status_prints_totals_and_unreachable_shards(
    service_server, gateway_for, capsys
):
    from repro import cli

    a = service_server(runner=runners.fast_runner)
    b = service_server(runner=runners.fast_runner)
    gw = gateway_for(a.address, b.address)
    code, _ = gw.submit(_pair_spec())
    assert code == 200
    assert cli.main(["fleet", "status", "--http", gw.url]) == 0
    out = capsys.readouterr().out
    assert "fleet: 2/2 shards reachable" in out
    assert "submitted=1" in out
    b.stop()
    assert cli.main(["fleet", "status", "--http", gw.url]) == 0
    out = capsys.readouterr().out
    assert "fleet: 1/2 shards reachable" in out
    assert f"shard1 {b.address}: UNREACHABLE" in out


def test_policy_flags_are_gone_not_ignored(capsys):
    """The daemon schedules one way and the gateway routes one way; the
    fleet is resized by restarting it, and a submit waits for its job."""
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
        (
            ["submit", "pair", "spec", "20", "17", "--no-wait"],
            "unrecognized arguments: --no-wait",
        ),
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert gone in capsys.readouterr().err
