"""ECM-style analytical cycle prediction (PAPERS.md: arXiv 1509.03118).

The roofline of :mod:`repro.core.roofline` bounds *throughput* (Eq. 4,
flops/cycle); it says nothing about how many cycles a phase actually
takes.  This module adds an Execution-Cache-Memory-style predictor: each
phase is decomposed into

* **in-core execution time** ``T_core`` — the issue-width-bound uop
  cycles of one strip-mined chunk (the ``max`` of the compute-pipe and
  ld/st-pipe occupancy, Eq. 2's two slots per core per cycle) plus the
  amortised dependency-chain latency the issue bound cannot hide;
* **data-transfer times** ``T_L1``/``T_L2``/``T_mem`` — the cycles the
  chunk's bytes occupy each memory-hierarchy link, using the same
  per-level bandwidth ceilings (``MachineConfig`` / Table 4) the
  roofline's hierarchical memory bound uses.  Issue traffic (every ld/st
  instruction re-fetches) loads the Vec-Cache port; only the reuse-
  filtered footprint — with write-allocate doubling store lines — misses
  down to L2/DRAM, mirroring the paper's ``<OI>.issue`` / ``<OI>.mem``
  split.

The single-chunk terms compose under the two classic ECM conventions:

* **overlapping** (``cycles``): in-core work and every transfer link
  proceed concurrently, so the slowest link alone bounds the chunk —
  the optimistic bracket, and the one that tracks this simulator best
  (its LSU pipelines misses behind execution);
* **non-overlapping** (``cycles_nonoverlap``): the chunk serialises
  through in-core execution and every link — the pessimistic bracket.
  ``overlap <= measured <= non-overlap`` should hold for every phase;
  the validation suite checks the ordering.

Calibration (see :class:`EcmCalibration`) is deliberately thin — three
constants measured once against the simulator, all with a mechanical
story, none fitted per workload.  Cross-validation against ``Machine.run``
over the Table 3 workloads under occamy/fts/cts lands at a geometric-mean
relative cycle error well inside the gate (see the ``ECM model`` rows of
:mod:`repro.analysis.fidelity` and ``repro perf-report``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.config import LANE_BYTES, MachineConfig, experiment_config
from repro.common.errors import ConfigurationError
from repro.compiler.ir import Kernel
from repro.compiler.phase_analysis import ELEM_BYTES, PhaseInfo, analyze_kernel
from repro.core.roofline import RooflineModel

#: float32 elements held by one 128-bit lane.
ELEMS_PER_LANE = LANE_BYTES // ELEM_BYTES

#: Policies whose lane managers time-share the full lane pool.
TEMPORAL_POLICIES = ("fts", "cts")


@dataclass(frozen=True)
class EcmCalibration:
    """The model's three measured constants (fixed, not per-workload).

    ``extra_compute_uops``
        Strip-mining bookkeeping the vectorizer emits per chunk beyond
        the body's compute nodes (loop-count/predicate upkeep); measured
        as exactly one compute uop per chunk across every Table 3 phase.
    ``store_line_factor``
        Write-allocate: a stored line is first fetched, then written
        back, so store footprint moves twice through L2/DRAM while load
        footprint moves once.
    ``temporal_issue_factor``
        Fine-grained temporal sharing (FTS) couples every core through
        one shared issue stage and renamer; its in-core time runs this
        factor slower than a spatially-partitioned core even solo.
        Measured against the simulator's TEMPORAL mode.
    """

    extra_compute_uops: int = 1
    store_line_factor: int = 2
    temporal_issue_factor: float = 1.2


@dataclass(frozen=True)
class EcmPhasePrediction:
    """The ECM decomposition of one phase at one lane allocation."""

    phase_name: str
    lanes: int
    level: str  # residency level bounding the deepest transfer link
    chunks: int  # strip-mined vector iterations across all repeats
    #: Per-chunk time components (cycles).
    t_core: float
    t_l1: float
    t_l2: float
    t_mem: float
    #: Total uops per chunk (compute + ld/st), for IPC/CPI accounting.
    uops_per_chunk: int

    @property
    def t_data(self) -> float:
        """Total per-chunk transfer time (the non-overlap data term)."""
        return self.t_l1 + self.t_l2 + self.t_mem

    @property
    def chunk_cycles(self) -> float:
        """Per-chunk cycles under the overlapping convention."""
        return max(self.t_core, self.t_l1, self.t_l2, self.t_mem)

    @property
    def chunk_cycles_nonoverlap(self) -> float:
        """Per-chunk cycles under the non-overlapping convention."""
        return self.t_core + self.t_data

    @property
    def cycles(self) -> float:
        """Predicted phase cycles (overlapping convention)."""
        return self.chunks * self.chunk_cycles

    @property
    def cycles_nonoverlap(self) -> float:
        """Predicted phase cycles (non-overlapping convention)."""
        return self.chunks * self.chunk_cycles_nonoverlap

    @property
    def uops(self) -> int:
        """Total vector uops the phase dispatches."""
        return self.chunks * self.uops_per_chunk

    @property
    def ipc(self) -> float:
        """Predicted vector uops per cycle (overlapping convention)."""
        return self.uops / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        """Predicted cycles per vector uop (overlapping convention)."""
        return self.cycles / self.uops if self.uops else 0.0

    @property
    def bottleneck(self) -> str:
        """Which ECM term bounds the phase under overlap."""
        terms = {
            "core": self.t_core,
            "l1": self.t_l1,
            "l2": self.t_l2,
            "mem": self.t_mem,
        }
        return max(terms, key=lambda k: terms[k])


@dataclass(frozen=True)
class EcmPrediction:
    """Whole-workload prediction: the per-phase decompositions summed."""

    kernel_name: str
    policy_key: str
    phases: Tuple[EcmPhasePrediction, ...]

    @property
    def cycles(self) -> float:
        """Predicted workload cycles (overlapping convention)."""
        return sum(phase.cycles for phase in self.phases)

    @property
    def cycles_nonoverlap(self) -> float:
        """Predicted workload cycles (non-overlapping convention)."""
        return sum(phase.cycles_nonoverlap for phase in self.phases)

    @property
    def uops(self) -> int:
        return sum(phase.uops for phase in self.phases)

    @property
    def ipc(self) -> float:
        return self.uops / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.uops if self.uops else 0.0


class EcmModel:
    """ECM predictor for one machine configuration.

    ``bandwidth_share`` scales the shared L2/DRAM ceilings down for
    co-run estimates (two streaming co-runners each see roughly half the
    channel); the Vec-Cache port is per-RegBlk and never shared.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        calibration: EcmCalibration = EcmCalibration(),
        bandwidth_share: float = 1.0,
    ) -> None:
        if not 0.0 < bandwidth_share <= 1.0:
            raise ConfigurationError(
                f"bandwidth_share must be in (0, 1], got {bandwidth_share}"
            )
        self.config = config or experiment_config()
        self.calibration = calibration
        self.bandwidth_share = bandwidth_share
        self.roofline = RooflineModel.from_config(self.config)

    # --- lane allocation per policy -----------------------------------------

    def lanes_for(self, policy_key: str, info: PhaseInfo, max_lanes: Optional[int] = None) -> int:
        """The lane count ``policy_key``'s manager would grant this phase.

        Solo semantics: the elastic (occamy) and static-plan (vls)
        managers stop at the roofline saturation knee, the private
        baseline keeps its fixed share, and temporal policies offer the
        full pool.  ``max_lanes`` caps spatial grants for co-run
        estimates (the pool is split across runners).
        """
        total = self.config.vector.total_lanes
        if policy_key in TEMPORAL_POLICIES:
            return total
        if policy_key == "private":
            lanes = self.config.lanes_per_core_private
        else:  # occamy / vls: roofline-guided spatial allocation
            level = info.residency_level(self.config.memory)
            lanes = self.roofline.saturation_lanes(info.oi_for_level(level))
        if max_lanes is not None:
            lanes = min(lanes, max_lanes)
        return max(1, min(lanes, total))

    # --- the per-phase decomposition ----------------------------------------

    def phase_prediction(
        self,
        info: PhaseInfo,
        lanes: int,
        level: Optional[str] = None,
        temporal: bool = False,
    ) -> EcmPhasePrediction:
        """Decompose one phase at ``lanes`` lanes into the ECM terms."""
        if lanes < 1:
            raise ConfigurationError(f"lanes must be positive, got {lanes}")
        vector = self.config.vector
        core = self.config.core
        cal = self.calibration
        if level is None:
            level = info.residency_level(self.config.memory)

        elems_per_chunk = ELEMS_PER_LANE * lanes
        chunks = math.ceil(info.trip_count / elems_per_chunk) * max(1, info.repeats)

        comp_uops = info.comp_insts + cal.extra_compute_uops
        mem_uops = info.load_insts + info.store_insts

        # In-core: the wider of the two issue pipes, plus the dependency-
        # chain latency left over after overlapping chains across the
        # chunks the instruction pool keeps in flight.  The synthesized
        # bodies chain `comp - (loads-1)` ops per store behind a
        # `log2(loads)`-deep combine tree (see workloads.synth).
        t_issue = max(
            comp_uops / vector.compute_issue_width,
            mem_uops / vector.ldst_issue_width,
        )
        chain_links = max(0, info.comp_insts - max(info.load_insts - 1, 0))
        tree_depth = (
            math.ceil(math.log2(info.load_insts)) if info.load_insts > 1 else 0
        )
        critical_path = (
            chain_links / max(1, info.store_insts) + tree_depth
        ) * vector.compute_latency
        inflight_chunks = max(
            1.0, core.instruction_pool_entries / (comp_uops + mem_uops)
        )
        t_core = t_issue + critical_path / inflight_chunks
        if temporal:
            t_core *= cal.temporal_issue_factor

        # Transfers: issue traffic hits the Vec-Cache port; the reuse-
        # filtered footprint (stores doubled by write-allocate) walks the
        # deeper links its residency level implies.
        memory = self.config.memory
        issue_bytes = mem_uops * lanes * LANE_BYTES
        t_l1 = issue_bytes / memory.vec_cache.bytes_per_cycle
        load_arrays = max(0, info.footprint_arrays - info.store_insts)
        deep_bytes = (
            (load_arrays + cal.store_line_factor * info.store_insts)
            * ELEM_BYTES
            * elems_per_chunk
        )
        share = self.bandwidth_share
        t_l2 = (
            deep_bytes / (memory.l2.bytes_per_cycle * share)
            if level in ("l2", "dram")
            else 0.0
        )
        t_mem = (
            deep_bytes / (memory.dram_bytes_per_cycle * share)
            if level == "dram"
            else 0.0
        )

        return EcmPhasePrediction(
            phase_name=info.loop_name,
            lanes=lanes,
            level=level,
            chunks=chunks,
            t_core=t_core,
            t_l1=t_l1,
            t_l2=t_l2,
            t_mem=t_mem,
            uops_per_chunk=comp_uops + mem_uops,
        )

    # --- whole workloads -----------------------------------------------------

    def predict_kernel(
        self,
        kernel: Kernel,
        policy_key: str = "occamy",
        max_lanes: Optional[int] = None,
    ) -> EcmPrediction:
        """Predict ``kernel``'s cycles under ``policy_key``'s lane grants."""
        temporal = policy_key == "fts"
        phases = []
        for info in analyze_kernel(kernel):
            lanes = self.lanes_for(policy_key, info, max_lanes=max_lanes)
            level = info.residency_level(self.config.memory)
            phases.append(
                self.phase_prediction(info, lanes, level=level, temporal=temporal)
            )
        return EcmPrediction(
            kernel_name=kernel.name,
            policy_key=policy_key,
            phases=tuple(phases),
        )


# --- convenience --------------------------------------------------------------


def predict_workload(
    kernel: Kernel,
    policy_key: str = "occamy",
    config: Optional[MachineConfig] = None,
) -> EcmPrediction:
    """One-shot solo-workload prediction (the validation harness's view)."""
    return EcmModel(config).predict_kernel(kernel, policy_key)


def lane_sweep(
    kernel: Kernel,
    lane_choices: Sequence[int],
    config: Optional[MachineConfig] = None,
    phase_index: int = 0,
) -> List[EcmPhasePrediction]:
    """The ECM decomposition of one phase across fixed lane counts."""
    model = EcmModel(config)
    info = analyze_kernel(kernel)[phase_index]
    return [model.phase_prediction(info, lanes) for lanes in lane_choices]
