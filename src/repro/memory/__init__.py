"""Vector-side memory system: Vec Cache -> shared L2 -> DRAM.

The co-processor's LSU issues byte-ranged requests into
:class:`VectorMemorySystem`; each level is a real set-associative LRU cache
with a latency and a bytes/cycle bandwidth regulator, so co-running
workloads contend both for capacity and for bandwidth — the effect the
paper's memory-intensive phases are bounded by.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.memory.bandwidth import BandwidthRegulator
    from repro.memory.cache import Cache, CacheStats
    from repro.memory.hierarchy import AccessResult, VectorMemorySystem
    from repro.memory.image import MemoryImage
    from repro.memory.mob import MemoryOrderingBuffer

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.memory.bandwidth": ("BandwidthRegulator",),
        "repro.memory.cache": ("Cache", "CacheStats"),
        "repro.memory.hierarchy": ("AccessResult", "VectorMemorySystem"),
        "repro.memory.image": ("MemoryImage",),
        "repro.memory.mob": ("MemoryOrderingBuffer",),
    },
)
