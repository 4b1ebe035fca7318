"""Machine configuration (the paper's Table 4).

The defaults model the evaluated two-core TaiShan-style system:

* 2 scalar cores, 8-issue out-of-order, 2 GHz (we model the scalar side as
  an in-order-retire interpreter with a parametric IPC — see DESIGN.md);
* a shared SIMD co-processor with 32 homogeneous 128-bit lanes (ExeBUs),
  vector issue width 4 per core (2 compute + 2 ld/st);
* a 128 KB 8-way Vec Cache (5 cycles), an 8 MB shared L2 (18 cycles) and
  64 GB/s DRAM (32 B/cycle at 2 GHz).

Two knobs are calibration points rather than literal paper values and are
flagged in DESIGN.md §6: ``vregs_per_block`` (the paper's text and its VRF
byte budget disagree) and ``dram_latency``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

from repro.common.errors import ConfigurationError

#: Width of one SIMD lane (one ExeBU) in bits — the ARM SVE granule.
LANE_BITS = 128

#: Width of one SIMD lane in bytes.
LANE_BYTES = LANE_BITS // 8


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64
    latency: int = 4
    bytes_per_cycle: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigurationError("cache dimensions must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of ways * line size "
                f"(got {self.size_bytes}B / {self.ways}w / {self.line_bytes}B)"
            )
        if self.latency < 1 or self.bytes_per_cycle < 1:
            raise ConfigurationError("cache timing must be positive")

    @property
    def num_sets(self) -> int:
        """Number of cache sets."""
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class MemoryConfig:
    """The vector-side memory hierarchy: Vec Cache -> L2 -> DRAM."""

    #: The Vec Cache is ported per RegBlk (Fig. 5 feeds all lanes each
    #: cycle), so its bandwidth scales with the data-path width and is not
    #: the shared bottleneck — L2 and DRAM are.  We model that with a large
    #: per-cycle byte budget.
    vec_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=128 * 1024, ways=8, line_bytes=64, latency=5, bytes_per_cycle=1024
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=8 * 1024 * 1024, ways=16, line_bytes=64, latency=18, bytes_per_cycle=64
        )
    )
    dram_latency: int = 120
    dram_bytes_per_cycle: int = 32  # 64 GB/s at 2 GHz

    def __post_init__(self) -> None:
        if self.dram_latency < 1 or self.dram_bytes_per_cycle < 1:
            raise ConfigurationError("DRAM timing must be positive")
        if self.vec_cache.line_bytes != self.l2.line_bytes:
            raise ConfigurationError("Vec Cache and L2 must share one line size")

    @property
    def line_bytes(self) -> int:
        """Cache-line size shared by every level."""
        return self.vec_cache.line_bytes


@dataclass(frozen=True)
class VectorConfig:
    """The SIMD co-processor resources shared by all cores."""

    total_lanes: int = 32
    compute_issue_width: int = 2  # SIMD compute uops / core / cycle
    ldst_issue_width: int = 2  # SIMD ld/st uops / core / cycle
    compute_latency: int = 4  # pipelined FP latency of one ExeBU
    #: Physical 128-bit vector registers per RegBlk.  Calibrated so spatial
    #: sharing never renaming-stalls (freelist >= the per-core in-flight
    #: window) while temporal sharing — which keeps every core's context in
    #: every block — contends visibly (Fig. 13).  See DESIGN.md §6 on the
    #: paper's own inconsistent VRF sizing.
    vregs_per_block: int = 128
    arch_vregs: int = 32  # architectural z0..z31
    #: Coarse-grained temporal sharing (the CTS baseline of Beldianu &
    #: Ziavras): ownership quantum and context-switch drain penalty.
    cts_quantum: int = 256
    cts_switch_penalty: int = 40

    def __post_init__(self) -> None:
        if self.total_lanes < 1:
            raise ConfigurationError("need at least one SIMD lane")
        if self.vregs_per_block <= self.arch_vregs:
            raise ConfigurationError(
                "vregs_per_block must exceed the architectural register count"
            )
        if self.compute_issue_width < 1 or self.ldst_issue_width < 1:
            raise ConfigurationError("issue widths must be positive")
        if self.compute_latency < 1:
            # Dispatch planning relies on no compute completing within its
            # own dispatch cycle.
            raise ConfigurationError("compute_latency must be at least 1 cycle")

    @property
    def issue_width(self) -> int:
        """Total vector issue width per core (paper: 4 = 2 + 2)."""
        return self.compute_issue_width + self.ldst_issue_width


@dataclass(frozen=True)
class CoreConfig:
    """One scalar core and its co-processor-facing queues."""

    scalar_ipc: int = 8  # mini-ISA instructions retired per cycle (8-issue)
    #: Per-core in-flight vector window.  Sized so a streaming loop at a
    #: small vector length stays DRAM-*bandwidth*-bound rather than
    #: latency-bound (window bytes >= dram_latency * dram_bytes_per_cycle),
    #: which is the premise behind the paper's "memory-intensive phases
    #: don't benefit from more lanes" observation.
    instruction_pool_entries: int = 96
    transmit_width: int = 4  # vector instrs transmitted to Occamy per cycle
    store_queue_entries: int = 48  # STQ entries per core

    def __post_init__(self) -> None:
        if self.scalar_ipc < 1 or self.instruction_pool_entries < 1:
            raise ConfigurationError("core parameters must be positive")


@dataclass(frozen=True)
class MachineConfig:
    """A full multi-core machine sharing one SIMD co-processor."""

    num_cores: int = 2
    vector: VectorConfig = field(default_factory=VectorConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    frequency_ghz: float = 2.0

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise ConfigurationError("need at least one core")
        if self.vector.total_lanes % self.num_cores != 0:
            raise ConfigurationError(
                "total lanes must divide evenly across cores so the Private "
                "baseline is well-defined "
                f"({self.vector.total_lanes} lanes / {self.num_cores} cores)"
            )

    @property
    def lanes_per_core_private(self) -> int:
        """Per-core lane count of the core-private baseline (Fig. 1a)."""
        return self.vector.total_lanes // self.num_cores

    def replace(self, **changes: object) -> "MachineConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **changes)

    def scaled_to_cores(self, num_cores: int) -> "MachineConfig":
        """Return a config scaled to ``num_cores`` keeping lanes-per-core.

        Matches §4.2.1: scaling Occamy up enlarges the tables and pipelines
        while the per-core lane budget stays constant (16 lanes/core).
        Raises :class:`ConfigurationError` when the current lane pool does
        not divide evenly across the current cores — silently truncating
        the per-core budget would hand the scaled machine fewer lanes per
        core than the source configuration promises.
        """
        if self.vector.total_lanes % self.num_cores != 0:
            raise ConfigurationError(
                f"cannot scale: {self.vector.total_lanes} total lanes do not "
                f"divide evenly across {self.num_cores} cores"
            )
        lanes_per_core = self.vector.total_lanes // self.num_cores
        vector = dataclasses.replace(self.vector, total_lanes=lanes_per_core * num_cores)
        return dataclasses.replace(self, num_cores=num_cores, vector=vector)


def validate_core_count(value: object, source: str = "--cores") -> int:
    """One validated core count from CLI-ish input.

    Accepts ints or strings of ints; rejects non-integers (including
    floats and bools), zero and negatives with a
    :class:`ConfigurationError` naming the offending value and flag, so
    bad CLI input exits 2 cleanly instead of surfacing a deep stack
    trace from ``scaled_to_cores``.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"{source}: {value!r} is not an integer core count")
    if isinstance(value, str):
        try:
            value = int(value, 10)
        except ValueError:
            raise ConfigurationError(
                f"{source}: {value!r} is not an integer core count"
            ) from None
    if isinstance(value, float):
        if not value.is_integer():
            raise ConfigurationError(
                f"{source}: {value!r} is not an integer core count"
            )
        value = int(value)
    if not isinstance(value, int):
        raise ConfigurationError(f"{source}: {value!r} is not an integer core count")
    if value < 1:
        raise ConfigurationError(f"{source}: core count must be positive, got {value}")
    return value


def validate_core_counts(values, source: str = "--cores") -> Tuple[int, ...]:
    """Validate a CLI core-count list: integers, positive, no duplicates."""
    counts = []
    for value in values:
        count = validate_core_count(value, source)
        if count in counts:
            raise ConfigurationError(f"{source}: duplicate core count {count}")
        counts.append(count)
    if not counts:
        raise ConfigurationError(f"{source}: needs at least one core count")
    return tuple(counts)


def table4_config(num_cores: int = 2) -> MachineConfig:
    """The evaluated configuration of the paper's Table 4."""
    return MachineConfig().scaled_to_cores(num_cores)


def experiment_config(num_cores: int = 2) -> MachineConfig:
    """Table 4 with proportionally scaled-down caches.

    The paper simulates SPEC REF inputs whose working sets dwarf an 8 MB
    L2; our workloads are scaled so Python-speed simulations finish in
    seconds, and the caches scale with them to preserve the residency
    classes (compute-intensive => Vec-Cache resident, memory-intensive =>
    DRAM streaming).  All latencies, bandwidths and issue widths keep the
    Table 4 values.
    """
    memory = MemoryConfig(
        vec_cache=CacheConfig(
            size_bytes=32 * 1024, ways=8, line_bytes=64, latency=5, bytes_per_cycle=1024
        ),
        l2=CacheConfig(
            size_bytes=128 * 1024, ways=16, line_bytes=64, latency=18, bytes_per_cycle=64
        ),
        dram_latency=120,
        dram_bytes_per_cycle=32,
    )
    return MachineConfig(memory=memory).scaled_to_cores(num_cores)


def canonical_config_dict(config: MachineConfig) -> Dict[str, object]:
    """A plain nested dict of every configuration field.

    Every leaf is an int/float/str, so the dict JSON-serialises losslessly —
    the basis of :func:`config_fingerprint`.
    """
    return dataclasses.asdict(config)


@lru_cache(maxsize=None)
def config_fingerprint(config: MachineConfig) -> str:
    """A stable content hash of a :class:`MachineConfig`.

    Two configs hash equal iff every field (including nested cache/vector/
    core geometry and timing) is equal — unlike ``id()``- or
    ``num_cores``-based keys, any knob change invalidates derived caches.
    Used to key both the in-memory sweep memo and the persistent on-disk
    result cache.
    """
    payload = json.dumps(canonical_config_dict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def describe(config: MachineConfig) -> Dict[str, Tuple[object, ...]]:
    """Summarise a configuration as printable rows (used by reporting)."""
    return {
        "cores": (config.num_cores, "scalar cores"),
        "lanes": (config.vector.total_lanes, "128-bit ExeBUs"),
        "issue": (config.vector.issue_width, "vector uops/core/cycle"),
        "vec_cache": (config.memory.vec_cache.size_bytes // 1024, "KB"),
        "l2": (config.memory.l2.size_bytes // 1024 // 1024, "MB"),
        "dram_bw": (config.memory.dram_bytes_per_cycle, "B/cycle"),
    }
