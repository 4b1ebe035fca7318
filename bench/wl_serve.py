"""``serve_mixed``: the only workload where the service code blocks a result.

One shard (``repro serve``, one worker) behind a gateway running on a
thread of this process; two keep-alive HTTP clients in a **closed loop** —
each sends its next ``POST /submit`` only after the previous reply, as
callers of ``repro submit`` do.  Three phases: *miss* (unique cold specs,
bounded by one worker's simulation speed), *hit* (the same specs again,
never touching the engine), *dup* (both clients submit one new spec at the
same instant; it must execute once).
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from harness import digest_of, median, percentile, self_times, timed

SCALE = 0.05
CLIENTS = 2

#: (suite, mem, comp, policy): four of the named case-study pairs under the
#: elastic and the temporal policy.  Fixed; only the order follows the seed.
MISS_SPECS: Tuple[Tuple[str, int, int, str], ...] = tuple(
    (suite, mem, comp, policy)
    for suite, mem, comp in (("spec", 8, 17), ("spec", 20, 17), ("spec", 9, 13), ("opencv", 6, 1))
    for policy in ("occamy", "fts")
)
DUP_SPECS = (("spec", 12, 19, "occamy"), ("spec", 12, 19, "fts"))
#: Submitted alone, straight at the shard, by the traced run only.
LONE_SPEC = ("spec", 12, 19, "vls")


class Reply(NamedTuple):
    label: str
    latency_s: float
    status: int
    payload: Dict[str, object]

    @property
    def done(self) -> bool:
        return self.status == 200 and self.payload.get("event") == "done"

    @property
    def result(self) -> Dict[str, object]:
        return self.payload.get("result") or {}


def _label(spec: Tuple[str, int, int, str]) -> str:
    suite, mem, comp, policy = spec
    return f"{suite}:{mem}+{comp}/{policy}@{SCALE}"


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        if ctx.smoke:
            self.miss_specs, self.hits, self.dup_rounds = MISS_SPECS[4:6], 20, 1
            self.verify, self.direct_hits = 1, 10
        else:
            self.miss_specs = MISS_SPECS[: max(2, min(8, round(0.4 * ctx.seconds)))]
            self.hits = max(20, round(40 * ctx.seconds))
            self.dup_rounds = max(1, min(2, round(ctx.seconds / 10)))
            self.verify, self.direct_hits = 2, 100
        self.manager = self.gateway = self.thread = None
        self.conns: List[http.client.HTTPConnection] = []
        self.cwd = os.getcwd()
        self.miss: List[Reply] = []
        self.hit: List[Reply] = []
        self.dup: List[Tuple[Reply, Reply]] = []
        self.walls: Dict[str, float] = {}
        self.executed: Dict[str, int] = {}
        self.dup_executed: List[int] = []
        self.failures: List[str] = []
        self.region_wall_s = 0.0
        self.daemon_counters: Dict[str, int] = {}
        self.gateway_counters: Dict[str, int] = {}
        self.extra_layers: Dict[str, float] = {}
        self._specs: Dict[Tuple[str, int, int, str], Dict[str, object]] = {}
        self._lock = threading.Lock()

    def sizes(self) -> Dict[str, object]:
        return {
            "shards": 1,
            "workers": 1,
            "clients": f"{CLIENTS} keep-alive HTTP, closed loop",
            "miss_specs": [_label(s) for s in self.miss_specs],
            "hit_submissions": self.hits,
            "dup_rounds": self.dup_rounds,
            "verified_in_process": self.verify,
        }

    # -- set-up / teardown ----------------------------------------------------

    def setup(self) -> None:
        from repro.service.fleet import FleetManager
        from repro.service.gateway import Gateway, GatewayOptions, serve_in_thread

        # A Unix socket path may hold ~100 bytes; the checkout can sit
        # anywhere, so address the shard relative to the work directory.
        os.chdir(self.ctx.workdir)
        self.manager = FleetManager(base_dir=Path("fleet"), workers=1)
        self.manager.start(1)
        self.gateway = Gateway(GatewayOptions(fleet=self.manager, health_interval=30.0))
        self.thread = serve_in_thread(self.gateway)
        for _ in range(CLIENTS):
            conn = http.client.HTTPConnection(
                "127.0.0.1", self.gateway.bound_port, timeout=120.0
            )
            conn.connect()
            self.conns.append(conn)

    def teardown(self) -> None:
        try:
            for conn in self.conns:
                conn.close()
            if self.gateway is not None:
                self.gateway.stop_threadsafe()
            if self.thread is not None:
                self.thread.join(timeout=15.0)
        finally:
            if self.manager is not None:
                self.manager.stop_all()
            os.chdir(self.cwd)

    # -- traffic --------------------------------------------------------------

    def _spec(self, spec: Tuple[str, int, int, str]) -> Dict[str, object]:
        from repro.service.specs import spec_for_pair

        if spec not in self._specs:  # built once, not once per submission
            suite, mem, comp, policy = spec
            self._specs[spec] = spec_for_pair(suite, mem, comp, policy=policy, scale=SCALE)
        return self._specs[spec]

    def _submit(self, client: int, spec, parent: Optional[int]) -> Reply:
        label = _label(spec)
        body = json.dumps({"spec": self._spec(spec), "client": f"bench-{client}"})
        conn = self.conns[client]
        with self.ctx.tracer.span("service.gateway.submit", job=label, parent=parent):
            begin = time.perf_counter()
            conn.request("POST", "/submit", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            latency = time.perf_counter() - begin
        return Reply(label, latency, response.status, payload)

    def _clients(self, work) -> None:
        """Run ``work(client)`` on one thread per client; wait for both."""

        def guarded(client: int) -> None:
            try:
                work(client)
            except Exception as exc:  # a dead connection must fail the run
                with self._lock:
                    self.failures.append(f"client {client}: {exc!r}")

        threads = [
            threading.Thread(target=guarded, args=(client,)) for client in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def _shard_status(self) -> Dict[str, object]:
        from repro.service.client import ServiceClient

        with ServiceClient(self.manager.addresses()[0], timeout=30.0) as client:
            return client.status()

    def _executed(self) -> int:
        return int(self._shard_status()["counters"]["executed"])

    def _phase(self, name: str, work) -> None:
        with self.ctx.tracer.span(f"serve.{name}", job=name) as parent:
            begin = time.perf_counter()
            self._clients(lambda client: work(client, parent))
            elapsed = time.perf_counter() - begin
        self.walls[name] = self.walls.get(name, 0.0) + elapsed
        self.region_wall_s += elapsed

    def run(self) -> None:
        order = list(self.miss_specs)
        self.ctx.rng.shuffle(order)
        pending = collections.deque(order)

        def miss(client: int, parent) -> None:
            while True:
                try:
                    spec = pending.popleft()
                except IndexError:
                    return
                reply = self._submit(client, spec, parent)
                with self._lock:
                    self.miss.append(reply)

        self._phase("miss", miss)
        self.executed["after_miss"] = self._executed()

        # Each client re-submits its own half of the specs, so the two never
        # ask for the same key at once and the gateway's single-flight does
        # not fold a hit into its neighbour.
        def hit(client: int, parent) -> None:
            mine = order[client::CLIENTS]
            for index in range(self.hits // CLIENTS):
                reply = self._submit(client, mine[index % len(mine)], parent)
                with self._lock:
                    self.hit.append(reply)

        self._phase("hit", hit)
        self.executed["after_hit"] = self._executed()

        for spec in DUP_SPECS[: self.dup_rounds]:
            before = self._executed()
            barrier = threading.Barrier(CLIENTS)
            pair: Dict[int, Reply] = {}

            def dup(client: int, parent, spec=spec, barrier=barrier, pair=pair) -> None:
                barrier.wait(timeout=30.0)
                pair[client] = self._submit(client, spec, parent)

            self._phase("dup", dup)
            if len(pair) == CLIENTS:
                self.dup.append((pair[0], pair[1]))
            self.dup_executed.append(self._executed() - before)

        self.daemon_counters = dict(self._shard_status()["counters"])
        conn = self.conns[0]
        conn.request("GET", "/status")
        status = json.loads(conn.getresponse().read().decode("utf-8"))
        self.gateway_counters = dict(status["gateway"]["counters"])

    # -- results --------------------------------------------------------------

    def _hit_ms(self) -> List[float]:
        return [1e3 * reply.latency_s for reply in self.hit]

    def end_to_end(self) -> Dict[str, float]:
        cycles = sum(int(reply.result.get("total_cycles", 0)) for reply in self.miss)
        hit_ms = self._hit_ms()
        return {
            "wall_s": sum(self.walls.values()),
            "sim_kcycles_per_s": cycles / self.walls["miss"] / 1e3,
            "miss_jobs_per_s": len(self.miss) / self.walls["miss"],
            "hit_latency_p50_ms": median(hit_ms),
            "hit_latency_p90_ms": percentile(hit_ms, 0.90),
        }

    def _served(self) -> Dict[str, Dict[str, object]]:
        """One served result per distinct spec (first reply wins)."""
        served: Dict[str, Dict[str, object]] = {}
        for reply in self.miss + [r for pair in self.dup for r in pair]:
            if reply.done:
                served.setdefault(reply.label, reply.result)
        return served

    def exact(self) -> Dict[str, object]:
        return {
            "sim_digest": digest_of(
                f"{label} {section} {value}"
                for label, result in sorted(self._served().items())
                for section, value in sorted(result["fingerprint"].items())
            ),
            "coalesced_total": self.daemon_counters.get("coalesced", 0)
            + self.gateway_counters.get("coalesced", 0),
        }

    def check(self, checks) -> None:
        from repro.analysis.parallel import execute_task
        from repro.analysis.result_cache import ResultCache
        from repro.service.protocol import fingerprint_digests
        from repro.service.specs import build_task

        checks.expect(not self.failures, f"no client thread died: {self.failures}")
        for reply in self.miss + self.hit + [r for pair in self.dup for r in pair]:
            checks.expect(reply.done, f"{reply.label}: HTTP {reply.status} {reply.payload.get('event')}")
        checks.expect(
            len(self.miss) == len(self.miss_specs) and len(self.hit) == self.hits,
            f"{len(self.miss)} miss / {len(self.hit)} hit replies",
        )
        checks.expect(
            all(reply.payload.get("cached") for reply in self.hit)
            and self.executed["after_hit"] == self.executed["after_miss"],
            "no simulation executes during the hit phase",
        )
        checks.expect(
            self.dup_executed == [1] * self.dup_rounds,
            f"each dup round executes exactly once: {self.dup_executed}",
        )
        for first, second in self.dup:
            checks.expect(
                first.result.get("fingerprint") == second.result.get("fingerprint"),
                f"{first.label}: the two dup replies disagree",
            )
        cache = ResultCache(self.ctx.workdir / "cache")
        served = self._served()
        for label, result in served.items():
            stored = cache.get(str(result.get("key")))
            checks.expect(
                stored is not None and fingerprint_digests(stored) == result["fingerprint"],
                f"{label}: served digests differ from the cached result's",
            )
        labels = {_label(spec): spec for spec in self.miss_specs}
        for label in self.ctx.rng.sample(sorted(labels), self.verify):
            direct = execute_task(build_task(self._spec(labels[label])))
            checks.expect(
                label in served
                and fingerprint_digests(direct) == served[label]["fingerprint"],
                f"{label}: served digests differ from in-process execute_task",
            )

    # -- attribution-only legs (traced runs, after the timed region) ---------

    def attribute(self) -> None:
        from repro.analysis.parallel import execute_task, task_key
        from repro.analysis.result_cache import ResultCache
        from repro.service.client import ServiceClient
        from repro.service.protocol import summarize_result
        from repro.service.specs import build_task, normalize_spec, task_signature
        from wl_sim import pickle_round_trip

        address = self.manager.addresses()[0]
        specs = [self._spec(spec) for spec in self.miss_specs]
        direct_ms = []
        with ServiceClient(address, timeout=120.0) as client:
            for index in range(self.direct_hits):
                elapsed, _ = timed(
                    client.submit, specs[index % len(specs)], client="bench-direct"
                )
                direct_ms.append(1e3 * elapsed)
            lone = self._spec(LONE_SPEC)
            daemon_miss_s, _ = timed(client.submit, lone, client="bench-direct")

        cache = ResultCache(self.ctx.workdir / "cache")
        build_s = key_s = get_s = summarize_s = 0.0
        sizes = []
        for spec in specs:
            elapsed, task = timed(
                lambda: (task_signature(spec), build_task(normalize_spec(spec)))[1]
            )
            build_s += elapsed
            elapsed, key = timed(task_key, task)
            key_s += elapsed
            elapsed, result = timed(cache.get, key)
            get_s += elapsed
            summarize_s += timed(summarize_result, result, key=key)[0]
            sizes.append(cache.path_for(key).stat().st_size)

        task = build_task(lone)
        task.build_jobs()  # the worker compiled 12 and 19 in the dup phase
        in_process_s, result = timed(execute_task, task)
        pickle_s, result_bytes = timed(pickle_round_trip, result)

        daemon_p50 = median(direct_ms)
        per_hit_ms = 1e3 * (build_s + get_s + summarize_s) / len(specs)
        self.extra_layers = {
            "service.daemon.hit_p50_ms": daemon_p50,
            # The daemon memoises the key per signature, so a hit costs it
            # spec building + cache read + summarising, not key hashing.
            "service.daemon.hit_overhead_ms": daemon_p50 - per_hit_ms,
            "service.daemon.miss_overhead_s": daemon_miss_s - in_process_s,
            "service.gateway.hit_overhead_ms": median(self._hit_ms()) - daemon_p50,
            "service.specs.build_s": build_s,
            "service.protocol.summarize_s": summarize_s,
            "result_cache.key_s": key_s,
            "result_cache.get_s": get_s,
            "result_cache.entry_bytes": sum(sizes) / len(sizes),
            "result_cache.hits": cache.hits,
            "result_cache.misses": cache.misses,
            "parallel.pickle_s": pickle_s,
            "parallel.result_bytes": result_bytes,
        }

    def layers(self) -> Dict[str, float]:
        out = dict(self.extra_layers)
        e2e = self.end_to_end()
        hit_ms = self._hit_ms()
        out.update(
            {
                "service.gateway.hit_p50_ms": e2e["hit_latency_p50_ms"],
                "service.gateway.hit_p90_ms": e2e["hit_latency_p90_ms"],
                "service.gateway.hit_p98_ms": percentile(hit_ms, 0.98),
                "service.gateway.miss_jobs_per_s": e2e["miss_jobs_per_s"],
                "bench.wall_s": e2e["wall_s"],
                # The phases are the top-level spans; what no submission
                # covers inside them is thread start-up and the barrier.
                "bench.unattributed_s": self._phase_self_time(),
            }
        )
        for name in ("executed", "submitted", "coalesced", "cache_hits", "retries", "rejected"):
            out[f"service.daemon.{name}"] = self.daemon_counters.get(name, 0)
        for name in ("requests", "coalesced", "failovers", "rejected"):
            out[f"service.gateway.{name}"] = self.gateway_counters.get(name, 0)
        return out

    def _phase_self_time(self) -> float:
        spans = self.ctx.tracer.spans
        own = self_times(spans)
        return sum(own[span["id"]] for span in spans if span["parent"] is None)
