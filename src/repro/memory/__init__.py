"""Vector-side memory system: Vec Cache -> shared L2 -> DRAM.

The co-processor's LSU issues byte-ranged requests into
:class:`VectorMemorySystem`; each level is a real set-associative LRU cache
with a latency and a bytes/cycle bandwidth regulator, so co-running
workloads contend both for capacity and for bandwidth — the effect the
paper's memory-intensive phases are bounded by.
"""
