"""The Vec Cache -> L2 -> DRAM hierarchy shared by all cores (Fig. 4).

An access is decomposed into cache lines; each line is served by the first
level that hits.  Latencies accumulate down the hierarchy and every level's
bandwidth regulator delays traffic that exceeds its bytes/cycle budget, so
a single memory-intensive core can saturate DRAM and stall everyone.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.config import MemoryConfig
from repro.memory.bandwidth import BandwidthRegulator
from repro.memory.cache import Cache


class AccessResult(NamedTuple):
    """Outcome of one vector memory access."""

    complete_cycle: float  # when the data is available / committed
    lines: int  # cache lines touched
    vec_cache_hits: int
    l2_hits: int
    dram_accesses: int


_new_tuple = tuple.__new__


class VectorMemorySystem:
    """Shared vector memory: VecCache, unified L2 and a DRAM channel.

    :class:`Cache` and :class:`BandwidthRegulator` own the state; the
    per-line walk of :meth:`access` reads and writes it directly.  The
    oracle walks the same lines through ``Cache.access`` / ``Cache.fill``
    and ``BandwidthRegulator.serve`` instead
    (``ReferenceMemorySystem`` in :mod:`repro.validation.reference_engine`),
    and the two are diffed access by access.
    """

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.vec_cache = Cache("vec_cache", config.vec_cache)
        self.l2 = Cache("l2", config.l2)
        self.vec_cache_bw = BandwidthRegulator(
            "vec_cache", config.vec_cache.bytes_per_cycle
        )
        self.l2_bw = BandwidthRegulator("l2", config.l2.bytes_per_cycle)
        self.dram_bw = BandwidthRegulator("dram", config.dram_bytes_per_cycle)
        line_bytes = config.line_bytes
        vec_cache, l2 = self.vec_cache, self.l2
        vc_bw, l2_bw, dram_bw = self.vec_cache_bw, self.l2_bw, self.dram_bw
        #: What :meth:`access` reads of the geometry, bound once: the line
        #: size, each level's latency, sets and ways, each channel and the
        #: cycles one line holds it.
        self._walk = (
            line_bytes,
            config.vec_cache.latency,
            config.l2.latency,
            config.dram_latency,
            vec_cache._sets,
            vec_cache._num_sets,
            vec_cache._ways,
            l2._sets,
            l2._num_sets,
            l2._ways,
            vc_bw,
            l2_bw,
            dram_bw,
            line_bytes / vc_bw.bytes_per_cycle,
            line_bytes / l2_bw.bytes_per_cycle,
            line_bytes / dram_bw.bytes_per_cycle,
        )

    def access(self, addr: int, nbytes: int, cycle: float, is_store: bool) -> AccessResult:
        """Serve ``[addr, addr + nbytes)`` starting no earlier than ``cycle``.

        Returns when the access completes.  Loads complete when all lines
        have arrived; stores complete when all lines are owned by the Vec
        Cache (write-allocate).  Each line is one lookup per level it
        reaches (a hit moves the line to the MRU end of its set), a fill
        that evicts the set's LRU line, a write-back of a dirty Vec Cache
        victim into L2 and of a dirty L2 victim of a DRAM fill into DRAM,
        and one serve per channel crossed: a request starts when both it
        and the channel are free and holds the channel for ``line_bytes /
        bytes_per_cycle`` cycles.  With ``--audit`` every serve is checked
        as it happens.
        """
        if nbytes <= 0:
            return AccessResult(cycle, 0, 0, 0, 0)
        (
            line_bytes,
            vc_latency,
            l2_latency,
            dram_latency,
            vc_sets,
            vc_num_sets,
            vc_ways,
            l2_sets,
            l2_num_sets,
            l2_ways,
            vc_bw,
            l2_bw,
            dram_bw,
            vc_time,
            l2_time,
            dram_time,
        ) = self._walk
        audit = vc_bw.auditor  # installed on all three channels at once
        cycle = float(cycle)
        first = addr - addr % line_bytes
        last = addr + nbytes - 1
        last -= last % line_bytes
        vc_hits = l2_hits = dram = 0
        vc_writebacks = l2_writebacks = 0
        complete = cycle
        # The channels' queue tails live in locals for the walk and are
        # stored back after it (and before each audited serve).
        vc_free = vc_bw._next_free
        l2_free = l2_bw._next_free
        dram_free = dram_bw._next_free
        for block in range(first // line_bytes, last // line_bytes + 1):
            line = block * line_bytes
            # Every line moves through the Vec Cache port.
            start = vc_free if vc_free > cycle else cycle
            ready = vc_free = start + vc_time
            if audit is not None:
                vc_bw._next_free = vc_free
                audit.on_bandwidth_serve(vc_bw, line_bytes, cycle, start, ready)
            vc_set = vc_sets[block % vc_num_sets]
            # A set's insertion order is its LRU order: a hit re-inserts.
            dirty = vc_set.pop(line, None)
            if dirty is not None:
                vc_hits += 1
                vc_set[line] = dirty or is_store
                end = ready + vc_latency
            else:
                # Miss: fetch from L2 (and DRAM below it), then fill.
                arrival = ready
                start = l2_free if l2_free > arrival else arrival
                ready = l2_free = start + l2_time
                if audit is not None:
                    l2_bw._next_free = l2_free
                    audit.on_bandwidth_serve(l2_bw, line_bytes, arrival, start, ready)
                latency = vc_latency + l2_latency
                l2_set = l2_sets[block % l2_num_sets]
                dirty = l2_set.pop(line, None)
                if dirty is not None:
                    l2_hits += 1
                    l2_set[line] = dirty
                else:
                    arrival = ready
                    start = dram_free if dram_free > arrival else arrival
                    ready = dram_free = start + dram_time
                    if audit is not None:
                        dram_bw._next_free = dram_free
                        audit.on_bandwidth_serve(dram_bw, line_bytes, arrival, start, ready)
                    latency += dram_latency
                    dram += 1
                    if len(l2_set) >= l2_ways and l2_set.pop(next(iter(l2_set))):
                        # Dirty L2 victim: written back to DRAM.
                        l2_writebacks += 1
                        start = dram_free if dram_free > ready else ready
                        finish = dram_free = start + dram_time
                        if audit is not None:
                            dram_bw._next_free = dram_free
                            audit.on_bandwidth_serve(dram_bw, line_bytes, ready, start, finish)
                    l2_set[line] = False
                if len(vc_set) >= vc_ways:
                    victim = next(iter(vc_set))
                    if vc_set.pop(victim):
                        # Dirty eviction consumes L2 bandwidth (write-back)
                        # and lands dirty in L2, evicting there unserved.
                        vc_writebacks += 1
                        start = l2_free if l2_free > ready else ready
                        finish = l2_free = start + l2_time
                        if audit is not None:
                            l2_bw._next_free = l2_free
                            audit.on_bandwidth_serve(l2_bw, line_bytes, ready, start, finish)
                        victim_set = l2_sets[(victim // line_bytes) % l2_num_sets]
                        if victim in victim_set:
                            del victim_set[victim]
                        elif len(victim_set) >= l2_ways and victim_set.pop(next(iter(victim_set))):
                            l2_writebacks += 1
                        victim_set[victim] = True
                vc_set[line] = is_store
                end = ready + latency
            if end > complete:
                complete = end
        vc_bw._next_free = vc_free
        l2_bw._next_free = l2_free
        dram_bw._next_free = dram_free
        lines = (last - first) // line_bytes + 1
        vc_misses = lines - vc_hits
        vec_cache = self.vec_cache
        l2 = self.l2
        vec_cache.stats.hits += vc_hits
        vec_cache.stats.misses += vc_misses
        vec_cache.stats.writebacks += vc_writebacks
        l2.stats.hits += l2_hits
        l2.stats.misses += dram
        l2.stats.writebacks += l2_writebacks
        # ``tuple.__new__`` directly: the namedtuple's own ``__new__`` is a
        # Python-level call, once per access.
        return _new_tuple(AccessResult, (complete, lines, vc_hits, l2_hits, dram))
