"""The Vec Cache -> L2 -> DRAM hierarchy shared by all cores (Fig. 4).

An access is decomposed into cache lines; each line is served by the first
level that hits.  Latencies accumulate down the hierarchy and every level's
bandwidth regulator delays traffic that exceeds its bytes/cycle budget, so
a single memory-intensive core can saturate DRAM and stall everyone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import MemoryConfig
from repro.memory.bandwidth import BandwidthRegulator
from repro.memory.cache import Cache


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one vector memory access."""

    complete_cycle: float  # when the data is available / committed
    lines: int  # cache lines touched
    vec_cache_hits: int
    l2_hits: int
    dram_accesses: int

    @property
    def deepest_level(self) -> str:
        """Name of the slowest level this access reached."""
        if self.dram_accesses:
            return "dram"
        if self.l2_hits:
            return "l2"
        return "vec_cache"


class VectorMemorySystem:
    """Shared vector memory: VecCache, unified L2 and a DRAM channel."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.vec_cache = Cache("vec_cache", config.vec_cache)
        self.l2 = Cache("l2", config.l2)
        self.vec_cache_bw = BandwidthRegulator(
            "vec_cache", config.vec_cache.bytes_per_cycle
        )
        self.l2_bw = BandwidthRegulator("l2", config.l2.bytes_per_cycle)
        self.dram_bw = BandwidthRegulator("dram", config.dram_bytes_per_cycle)

    def access(self, addr: int, nbytes: int, cycle: float, is_store: bool) -> AccessResult:
        """Serve ``[addr, addr + nbytes)`` starting no earlier than ``cycle``.

        Returns when the access completes.  Loads complete when all lines
        have arrived; stores complete when all lines are owned by the Vec
        Cache (write-allocate).
        """
        config = self.config
        line_bytes = config.line_bytes
        vec_cache = self.vec_cache
        l2 = self.l2
        lines = vec_cache.lines_spanning(addr, nbytes)
        if not lines:
            return AccessResult(cycle, 0, 0, 0, 0)

        # Per-line hot loop: latencies and bound methods hoisted out.
        vc_latency = config.vec_cache.latency
        l2_latency = config.l2.latency
        dram_latency = config.dram_latency
        vc_serve = self.vec_cache_bw.serve
        l2_serve = self.l2_bw.serve
        dram_serve = self.dram_bw.serve
        vc_hits = 0
        l2_hits = 0
        dram = 0
        complete = float(cycle)
        for line in lines:
            # Every line moves through the Vec Cache port.
            ready = vc_serve(line_bytes, cycle)
            latency = vc_latency
            if vec_cache.access(line, is_store):
                vc_hits += 1
            else:
                # Miss: fetch from L2 (and DRAM below it), then fill.
                ready = l2_serve(line_bytes, ready)
                latency += l2_latency
                if l2.access(line, is_store=False):
                    l2_hits += 1
                else:
                    ready = dram_serve(line_bytes, ready)
                    latency += dram_latency
                    dram += 1
                    l2_victim = l2.fill(line, is_store=False)
                    if l2_victim is not None:
                        dram_serve(line_bytes, ready)
                vc_victim = vec_cache.fill(line, is_store)
                if vc_victim is not None:
                    # Dirty eviction consumes L2 bandwidth (write-back).
                    l2_serve(line_bytes, ready)
                    l2.fill(vc_victim, is_store=True)
            complete = max(complete, ready + latency)
        return AccessResult(
            complete_cycle=complete,
            lines=len(lines),
            vec_cache_hits=vc_hits,
            l2_hits=l2_hits,
            dram_accesses=dram,
        )

    def reset_bandwidth(self) -> None:
        """Forget queued traffic (between independent simulations)."""
        self.vec_cache_bw.reset()
        self.l2_bw.reset()
        self.dram_bw.reset()
