"""Fleet gateway: cache-cold job throughput, 4 daemons vs 1.

The load harness drives hundreds of concurrent submitters (thousands of
jobs per minute of capacity) through the HTTP gateway at a daemon fleet
whose workers run a fixed-latency stub job — so the measurement is the
*serving path* (gateway routing, admission control, queue turnover,
socket round-trips), not simulator speed.  Every job key is unique, so
nothing coalesces and nothing is a cache hit: throughput scales only if
shard routing actually spreads load and the gateway adds no serial
bottleneck.  The CI gate is >= 2x jobs/second for 4 daemons vs 1.

Admission control must *hold* under the load spike: with ~2.4x more
in-flight submitters than the single daemon's queue depth, the daemon
answers queue-full/quota rejections (HTTP 429) instead of buffering
without bound, and the harness retries until every job lands — the gate
also asserts every job executed exactly once.

``test_fleet_identity_across_sharing_modes`` is the correctness half of
the acceptance criterion: per-section SHA-256 fingerprints prove
gateway-served == daemon-served == direct in-process ``Machine.run``
results across occamy/fts/cts, with the daemon-served copy coming from a
*different* shard than the one that executed (the shared cache tier).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

from benchmarks.conftest import banner, run_once
from repro.analysis.parallel import execute_task
from repro.service.client import ServiceClient
from repro.service.fleet import FleetManager
from repro.service.gateway import Gateway, GatewayOptions, serve_in_thread
from repro.service.protocol import summarize_result
from repro.service.specs import build_task, spec_for_pair

from tests.service import runners

#: Unique (cache-cold) jobs pushed through each fleet.
JOBS = 400
#: Concurrent keep-alive HTTP submitters.
CONCURRENCY = 96
#: Stub job latency (seconds) inside each worker — long enough that
#: worker capacity, not python serving overhead, bounds the single-daemon
#: leg (keeps the measured ratio stable on slow CI machines).
JOB_SLEEP_S = 0.04
#: Per-daemon queue depth — deliberately smaller than CONCURRENCY so the
#: single-daemon leg must reject (HTTP 429) and the harness must retry.
QUEUE_DEPTH = 64
MIN_SPEEDUP = 2.0

PAIR = ("spec", 20, 17)
SCALE = 0.05
SHARING_MODES = ("occamy", "fts", "cts")

REPO_ROOT = Path(__file__).resolve().parent.parent


def _fleet_env(sleep_s=None):
    """Environment for daemon subprocesses: repo importable, stub latency set."""
    env = dict(os.environ)
    parts = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    if sleep_s is not None:
        env[runners.SLEEP_ENV] = str(sleep_s)
    return env


def _job_specs(count):
    """``count`` distinct job keys (one compile: only max_cycles varies)."""
    return [
        spec_for_pair(*PAIR, scale=SCALE, max_cycles=3_000_000 + index)
        for index in range(count)
    ]


# --- asyncio load generator ---------------------------------------------------


async def _read_response(reader):
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("gateway closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length)
    return status, json.loads(body.decode("utf-8"))


async def _drive(port, specs, concurrency):
    """Pump every spec through the gateway with ``concurrency`` keep-alive
    submitters; 429 rejections back off and retry until the job lands."""
    pending = iter(list(specs))
    results = []
    rejections = [0]

    async def submitter(index):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for spec in pending:
                body = json.dumps(
                    {"spec": spec, "client": f"load-{index}"}
                ).encode("utf-8")
                head = (
                    "POST /submit HTTP/1.1\r\n"
                    "Host: bench\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("latin-1")
                while True:
                    writer.write(head + body)
                    await writer.drain()
                    status, payload = await _read_response(reader)
                    if status == 429:
                        rejections[0] += 1
                        await asyncio.sleep(
                            float(payload.get("retry_after_ms", 250)) / 1000.0
                        )
                        continue
                    results.append((status, payload))
                    break
        finally:
            writer.close()

    await asyncio.gather(*(submitter(index) for index in range(concurrency)))
    return results, rejections[0]


# --- one fleet leg ------------------------------------------------------------


def _run_leg(base_dir, n_daemons, specs):
    manager = FleetManager(
        base_dir=base_dir,
        workers=2,
        queue_depth=QUEUE_DEPTH,
        runner="tests.service.runners:sleep_runner",
        env=_fleet_env(JOB_SLEEP_S),
    )
    gateway = thread = None
    try:
        manager.start(n_daemons)
        gateway = Gateway(
            GatewayOptions(shards=manager.addresses(), health_interval=30.0)
        )
        thread = serve_in_thread(gateway)
        start = time.perf_counter()
        results, rejections = asyncio.run(
            _drive(gateway.bound_port, specs, CONCURRENCY)
        )
        elapsed = time.perf_counter() - start
        executed = submitted = 0
        for address in manager.addresses():
            with ServiceClient(address, timeout=30.0) as client:
                status = client.status()
            executed += status["counters"]["executed"]
            submitted += status["counters"]["submitted"]
        return SimpleNamespace(
            daemons=n_daemons,
            elapsed=elapsed,
            throughput=len(specs) / max(elapsed, 1e-9),
            results=results,
            rejections=rejections,
            executed=executed,
            submitted=submitted,
        )
    finally:
        if gateway is not None:
            gateway.stop_threadsafe()
        if thread is not None:
            thread.join(timeout=15.0)
        manager.stop_all()


def _assert_leg_clean(leg, jobs):
    assert len(leg.results) == jobs
    assert all(code == 200 for code, _ in leg.results), [
        code for code, _ in leg.results if code != 200
    ][:5]
    assert all(payload["event"] == "done" for _, payload in leg.results)
    # Unique cache-cold keys: every job executed exactly once, fleet-wide.
    assert leg.executed == jobs, (leg.executed, jobs)
    # Daemons count rejected submissions too; each 429 the harness retried
    # shows up exactly once more here.
    assert leg.submitted == jobs + leg.rejections, (leg.submitted, leg.rejections)


def test_fleet_throughput_scales(benchmark, tmp_path):
    specs = _job_specs(JOBS)

    single = _run_leg(tmp_path / "single", 1, specs)
    _assert_leg_clean(single, JOBS)

    quad_box = {}

    def quad_leg():
        quad_box["leg"] = _run_leg(tmp_path / "quad", 4, specs)
        return quad_box["leg"]

    quad = run_once(benchmark, quad_leg)
    _assert_leg_clean(quad, JOBS)

    speedup = quad.throughput / max(single.throughput, 1e-9)

    banner("Fleet gateway — cache-cold throughput, 4 daemons vs 1")
    print(
        f"load: {JOBS} unique jobs, {CONCURRENCY} concurrent submitters, "
        f"{JOB_SLEEP_S * 1000:.0f}ms stub jobs, queue depth {QUEUE_DEPTH}/daemon"
    )
    print(
        f"1 daemon : {single.elapsed:.2f}s = {single.throughput:.0f} jobs/s "
        f"({single.rejections} admission rejections retried)"
    )
    print(
        f"4 daemons: {quad.elapsed:.2f}s = {quad.throughput:.0f} jobs/s "
        f"({quad.rejections} admission rejections retried)"
    )
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["throughput_1"] = single.throughput
    benchmark.extra_info["throughput_4"] = quad.throughput
    benchmark.extra_info["rejections_1"] = single.rejections
    benchmark.extra_info["rejections_4"] = quad.rejections

    assert speedup >= MIN_SPEEDUP


def test_fleet_identity_across_sharing_modes(tmp_path):
    """Gateway-served == daemon-served == direct, across all 3 modes."""
    import urllib.request

    manager = FleetManager(
        base_dir=tmp_path / "fleet", workers=1, env=_fleet_env()
    )
    gateway = thread = None
    try:
        manager.start(2)
        addresses = manager.addresses()
        gateway = Gateway(
            GatewayOptions(shards=addresses, health_interval=30.0)
        )
        thread = serve_in_thread(gateway)
        for policy in SHARING_MODES:
            spec = spec_for_pair(*PAIR, policy=policy, scale=SCALE)
            body = json.dumps({"spec": spec, "client": "identity"}).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{gateway.bound_port}/submit",
                data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=300) as response:
                served = json.loads(response.read().decode("utf-8"))
            assert served["event"] == "done", policy

            direct = summarize_result(execute_task(build_task(spec)))
            assert served["result"]["fingerprint"] == direct["fingerprint"], policy
            assert served["result"]["total_cycles"] == direct["total_cycles"]

            # Daemon-served from the *other* shard: the shared cache tier
            # answers with the executing shard's bytes, zero re-execution.
            executing = served["gateway"]["shard"]
            other = addresses[0 if executing == "shard1" else 1]
            with ServiceClient(other, timeout=300.0) as client:
                relayed = client.submit(spec, timeout=300)
            assert relayed["cached"], policy
            assert relayed["result"]["fingerprint"] == direct["fingerprint"], policy
    finally:
        if gateway is not None:
            gateway.stop_threadsafe()
        if thread is not None:
            thread.join(timeout=15.0)
        manager.stop_all()
