"""The vector-length-aware roofline model (paper §5.1, Fig. 7, Eq. 2-4).

Three ceilings bound the attainable performance ``AP_l(<OI>)`` of a phase
running on ``l`` lanes:

* **computation**:  ``FP_peak(l) = peak_flops_per_lane * l``  (scales with l)
* **SIMD issue bandwidth**:  ``issue_bytes_per_lane * l * <OI>.issue``
  (Eq. 2 — the ld/st data-path width scales with l)
* **memory bandwidth**:  ``bandwidth_for(level) * <OI>.mem``  (no l)

and Eq. 4 takes their minimum.  Units are *flops per cycle* with the
paper's per-32-bit-lane flop accounting; multiply by the clock to get
GFLOP/s (Table 5 uses 2 GHz).

Note on calibration: the paper's Eq. 2 (``2 * VL * 16`` bytes/cycle, VL in
128-bit lanes) is mutually inconsistent with its own Table 5, which implies
an *effective* issue bandwidth of 4 bytes/cycle per 32-bit lane — the value
that also emerges mechanically in our simulator from the in-flight-window /
memory-latency product.  We therefore default ``issue_bytes_per_lane`` to
4.0, which reproduces Table 5 exactly (see
``tests/core/test_roofline.py`` and the Table 5 rows of ``repro fidelity``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError
from repro.isa.registers import OIValue


#: Default hierarchical bandwidth ceilings (B/cycle) by memory level,
#: matching Table 4: a per-lane-ported Vec Cache, a 64 B/cycle unified L2
#: and a 32 B/cycle DRAM channel.
DEFAULT_BANDWIDTHS = {"vec_cache": 1024.0, "l2": 64.0, "dram": 32.0}


@dataclass(frozen=True)
class RooflineModel:
    """Attainable-performance model for one lane-count choice.

    The memory ceiling is *hierarchical* (§5.1): each ``OIValue`` carries
    the residency level of its phase's footprint, selecting which level's
    bandwidth bounds it.
    """

    peak_flops_per_lane: float = 1.0  # FP peak slope (flops/cycle/lane)
    issue_bytes_per_lane: float = 4.0  # effective SIMD issue BW slope (B/cycle/lane)
    mem_bandwidths: Tuple[Tuple[str, float], ...] = tuple(
        sorted(DEFAULT_BANDWIDTHS.items())
    )
    max_lanes: int = 32

    def __post_init__(self) -> None:
        bandwidths = dict(self.mem_bandwidths)
        if min(self.peak_flops_per_lane, self.issue_bytes_per_lane) <= 0:
            raise ConfigurationError("roofline ceilings must be positive")
        if "dram" not in bandwidths or any(bw <= 0 for bw in bandwidths.values()):
            raise ConfigurationError("need positive bandwidths incl. 'dram'")
        if self.max_lanes < 1:
            raise ConfigurationError("max_lanes must be positive")

    def bandwidth_for(self, level: str) -> float:
        """Bandwidth ceiling (B/cycle) of ``level``.

        Raises :class:`ConfigurationError` on an unknown residency level —
        a silent DRAM fallback would hand a typo'd level a plausible but
        wrong memory ceiling (``OIValue`` validates levels at construction,
        so this only fires for levels built outside the ISA layer).
        """
        bandwidths = dict(self.mem_bandwidths)
        try:
            return bandwidths[level]
        except KeyError:
            raise ConfigurationError(
                f"unknown residency level {level!r}; "
                f"expected one of {sorted(bandwidths)}"
            ) from None

    @classmethod
    def from_config(
        cls,
        config: MachineConfig,
        issue_bytes_per_lane: float = 4.0,
    ) -> "RooflineModel":
        """Build the model the LaneMgr uses for ``config``."""
        bandwidths = {
            "vec_cache": float(config.memory.vec_cache.bytes_per_cycle),
            "l2": float(config.memory.l2.bytes_per_cycle),
            "dram": float(config.memory.dram_bytes_per_cycle),
        }
        return cls(
            peak_flops_per_lane=1.0,
            issue_bytes_per_lane=issue_bytes_per_lane,
            mem_bandwidths=tuple(sorted(bandwidths.items())),
            max_lanes=config.vector.total_lanes,
        )

    # --- the three ceilings (flops/cycle) ---------------------------------

    def fp_peak(self, lanes: int) -> float:
        """Computation ceiling at ``lanes`` lanes."""
        return self.peak_flops_per_lane * lanes

    def issue_bound(self, lanes: int, oi: OIValue) -> float:
        """SIMD-issue-bandwidth ceiling (Eq. 2 folded into Eq. 4)."""
        return self.issue_bytes_per_lane * lanes * oi.issue

    def mem_bound(self, oi: OIValue) -> float:
        """Memory-bandwidth ceiling (lane-count independent).

        Uses the bandwidth of the level the phase's footprint resides in
        (the compiler's hint carried in ``<OI>``).
        """
        return self.bandwidth_for(oi.level) * oi.mem

    # --- Eq. 3 / Eq. 4 -----------------------------------------------------

    def attainable(self, lanes: int, oi: OIValue) -> float:
        """``AP_l(<OI>)`` — Eq. 4: the minimum of the three ceilings."""
        if lanes <= 0 or oi.is_phase_end:
            return 0.0
        return min(self.fp_peak(lanes), self.issue_bound(lanes, oi), self.mem_bound(oi))

    def net_gain(self, lanes: int, oi: OIValue) -> float:
        """Eq. 3: performance gained by growing from ``lanes`` to ``lanes+1``."""
        return self.attainable(lanes + 1, oi) - self.attainable(lanes, oi)

    def saturation_lanes(self, oi: OIValue, epsilon: float = 1e-9) -> int:
        """Smallest lane count beyond which Eq. 3 yields no gain."""
        if oi.is_phase_end:
            return 0
        lanes = 1
        while lanes < self.max_lanes and self.net_gain(lanes, oi) > epsilon:
            lanes += 1
        return lanes

    def attainable_gflops(self, lanes: int, oi: OIValue, frequency_ghz: float = 2.0) -> float:
        """Attainable performance in GFLOP/s (Table 5's units)."""
        return self.attainable(lanes, oi) * frequency_ghz

    def table_rows(
        self, oi: OIValue, lane_choices: Sequence[int], frequency_ghz: float = 2.0
    ) -> List[Dict[str, float]]:
        """The per-VL ceiling/performance rows of Table 5."""
        rows = []
        for lanes in lane_choices:
            rows.append(
                {
                    "vl": lanes,
                    "simd_issue_bound": self.issue_bound(lanes, oi) * frequency_ghz,
                    "mem_bound": self.mem_bound(oi) * frequency_ghz,
                    "comp_bound": self.fp_peak(lanes) * frequency_ghz,
                    "performance": self.attainable_gflops(lanes, oi, frequency_ghz),
                }
            )
        return rows
