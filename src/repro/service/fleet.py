"""Fleet plumbing: shard routing, status aggregation, daemon supervision.

One simulation daemon is a single host's worth of capacity.  Production
scale means a *fleet*: N daemons, each owning its own worker pool and
queue, fronted by one :mod:`~repro.service.gateway` that decides which
shard runs which job.  This module holds everything about the fleet that
is independent of HTTP:

* :class:`HashRing` — consistent hashing of job identities onto shard
  names, so repeat submissions of the same spec land on the shard whose
  key memo and OS page cache are already warm for it (and concurrent
  duplicates meet in that daemon, which coalesces them), and so a shard
  going down only remaps the keys that lived on it;
* :func:`choose_shard` — the one routing rule: a job goes to its hash
  home, and when that shard is down or already tried, to the next live
  shard in ring order;
* :func:`aggregate_statuses` — folds per-daemon ``status`` payloads into
  one fleet view (queue depths, worker occupancy, cache hit rate, retry
  counts) for the gateway's ``/status`` endpoint;
* :class:`FleetManager` — spawns and stops ``repro serve`` daemon
  subprocesses, each on its own socket, all sharing one result
  cache directory (the shared cache tier: content-hash keys make results
  location-independent, so any shard can serve any other shard's past
  work).
"""

from __future__ import annotations

import bisect
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ServiceUnavailableError

#: Virtual nodes per shard on the hash ring.  Enough that a 2..32-shard
#: fleet balances within a few percent; small enough that building the
#: ring is trivial.
RING_REPLICAS = 64


def _ring_hash(value: str) -> int:
    """Stable 64-bit point on the ring (never Python's salted ``hash``)."""
    digest = hashlib.sha256(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing of string keys onto named shards.

    Each shard contributes :data:`RING_REPLICAS` virtual points; a key
    maps to the first point clockwise from its own hash.  The properties
    the fleet relies on:

    * **stability** — the same key always maps to the same live shard,
      so repeat submissions hit the warm shard;
    * **minimal disruption** — removing a shard only remaps keys that
      lived on it; keys on surviving shards do not move (asserted by
      ``tests/service/test_fleet.py``);
    * **failover order** — :meth:`preference` yields *all* shards in
      ring order from the key's point, giving a deterministic retry
      sequence when the home shard is down.
    """

    def __init__(self, nodes: Iterable[str], replicas: int = RING_REPLICAS) -> None:
        names = sorted(set(nodes))
        if not names:
            raise ConfigurationError("a hash ring needs at least one node")
        self.nodes: Tuple[str, ...] = tuple(names)
        points: List[Tuple[int, str]] = []
        for name in names:
            for replica in range(replicas):
                points.append((_ring_hash(f"{name}#{replica}"), name))
        points.sort()
        self._points = [point for point, _ in points]
        self._names = [name for _, name in points]

    def preference(self, key: str) -> List[str]:
        """Every node, deduplicated, in ring order from ``key``'s point."""
        start = bisect.bisect_right(self._points, _ring_hash(key))
        seen: List[str] = []
        for index in range(len(self._names)):
            name = self._names[(start + index) % len(self._names)]
            if name not in seen:
                seen.append(name)
                if len(seen) == len(self.nodes):
                    break
        return seen

    def node_for(self, key: str) -> str:
        """The key's home node."""
        start = bisect.bisect_right(self._points, _ring_hash(key))
        return self._names[start % len(self._names)]


def choose_shard(
    ring: HashRing,
    signature: str,
    shards: Mapping[str, object],
    exclude: Iterable[str] = (),
):
    """Pick the shard that should run the job identified by ``signature``.

    ``shards`` maps shard name to any object with ``alive`` (bool).
    ``exclude`` names shards already tried this job (failover).  Returns
    the first live, non-excluded shard in the signature's ring order —
    its hash home when that is up, so repeat keys land on the warm shard
    — or ``None`` when no live shard remains.
    """
    excluded = set(exclude)
    return next(
        (
            shards[name]
            for name in ring.preference(signature)
            if shards[name].alive and name not in excluded
        ),
        None,
    )


# --- fleet-wide status aggregation -------------------------------------------


def aggregate_statuses(statuses: Sequence[Optional[Dict]]) -> Dict[str, object]:
    """Fold per-daemon ``status`` payloads into one fleet summary.

    ``None`` (or non-``ok``) entries count as unreachable shards.  The
    result carries summed queue depth, worker occupancy and counters,
    plus the fleet-wide cache hit rate (cache hits / submissions) — the
    number that proves the shared cache tier is working across shards.
    """
    reachable = [
        status for status in statuses if status is not None and status.get("ok")
    ]
    counters: Dict[str, int] = {}
    queued = busy = workers = 0
    for status in reachable:
        queue = status.get("queue") or {}
        pool = status.get("workers") or {}
        queued += int(queue.get("depth") or 0)
        busy += int(pool.get("busy") or 0)
        workers += int(pool.get("size") or 0)
        for key, value in (status.get("counters") or {}).items():
            if isinstance(value, (int, float)):
                counters[key] = counters.get(key, 0) + int(value)
    submitted = counters.get("submitted", 0)
    hits = counters.get("cache_hits", 0)
    return {
        "shards": len(statuses),
        "reachable": len(reachable),
        "queued": queued,
        "busy_workers": busy,
        "workers": workers,
        "counters": counters,
        "cache_hit_rate": round(hits / submitted, 4) if submitted else 0.0,
    }


# --- daemon subprocess supervision -------------------------------------------


class ShardProcess:
    """One ``repro serve`` daemon subprocess owned by a :class:`FleetManager`."""

    def __init__(self, name: str, address: str, process: subprocess.Popen) -> None:
        self.name = name
        self.address = address
        self.process = process

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.poll() is None

    def reap(self, timeout_s: float = 10.0) -> None:
        """Wait briefly for a clean exit, then escalate terminate/kill."""
        try:
            self.process.wait(timeout=timeout_s)
            return
        except subprocess.TimeoutExpired:
            pass
        self.process.terminate()
        try:
            self.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            self.process.kill()
            self.process.wait(timeout=5.0)


class FleetManager:
    """Spawns and supervises N daemon subprocesses on private sockets.

    Every shard shares the parent's environment — in particular
    ``REPRO_CACHE_DIR`` — so the fleet shares one result-cache tier.
    """

    def __init__(
        self,
        base_dir: Optional[os.PathLike] = None,
        workers: int = 2,
        queue_depth: int = 64,
        max_per_client: int = 16,
        job_timeout: float = 300.0,
        runner: Optional[str] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        if base_dir is None:
            from repro.analysis.result_cache import default_cache_dir

            base_dir = default_cache_dir() / "fleet"
        self.base_dir = Path(base_dir)
        self.workers = workers
        self.queue_depth = queue_depth
        self.max_per_client = max_per_client
        self.job_timeout = job_timeout
        self.runner = runner
        self.env = env
        self._shards: Dict[str, ShardProcess] = {}
        self._next_index = 0

    # -- introspection ---------------------------------------------------------

    def shards(self) -> List[ShardProcess]:
        return list(self._shards.values())

    def addresses(self) -> List[str]:
        return [shard.address for shard in self._shards.values()]

    def pids(self) -> List[int]:
        return [shard.pid for shard in self._shards.values()]

    def __len__(self) -> int:
        return len(self._shards)

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self) -> ShardProcess:
        index = self._next_index
        self._next_index += 1
        name = f"shard{index}"
        address = str(self.base_dir / f"{name}.sock")
        self.base_dir.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            address,
            "--workers",
            str(self.workers),
            "--queue-depth",
            str(self.queue_depth),
            "--max-per-client",
            str(self.max_per_client),
            "--job-timeout",
            str(self.job_timeout),
        ]
        if self.runner:
            command += ["--runner", self.runner]
        log_path = self.base_dir / f"{name}.log"
        with open(log_path, "ab") as log:
            process = subprocess.Popen(
                command,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
            )
        shard = ShardProcess(name=name, address=address, process=process)
        self._shards[name] = shard
        return shard

    def start(self, count: int, deadline_s: float = 60.0) -> List[ShardProcess]:
        """Spawn ``count`` additional daemons and wait until all answer
        ``ping``; on any startup failure the new shards are torn down."""
        from repro.service.client import wait_for_server

        spawned = [self._spawn() for _ in range(count)]
        deadline = time.monotonic() + deadline_s
        try:
            for shard in spawned:
                remaining = max(1.0, deadline - time.monotonic())
                if not shard.alive():
                    raise ServiceUnavailableError(
                        f"{shard.name} exited during startup "
                        f"(code {shard.process.poll()}); see "
                        f"{self.base_dir / (shard.name + '.log')}"
                    )
                wait_for_server(shard.address, deadline_s=remaining)
        except Exception:
            for shard in spawned:
                self.stop_shard(shard.name)
            raise
        return spawned

    def stop_shard(self, name: str) -> None:
        """Best-effort clean shutdown of one shard, then reap the process."""
        shard = self._shards.pop(name, None)
        if shard is None:
            return
        if shard.alive():
            try:
                from repro.service.client import ServiceClient

                with ServiceClient(shard.address, timeout=10.0) as client:
                    client.shutdown()
            except Exception:
                pass
        shard.reap()

    def stop_all(self) -> None:
        for name in list(self._shards):
            self.stop_shard(name)
