"""The allocation-policy family: who shares a complex with whom.

Each policy turns a thread set into a canonical :data:`Placement`.  The
family (PAPERS.md arXiv 2507.00855, adapted to this simulator's ECM/OI
machinery):

* ``random`` — seeded shuffle, the baseline every other policy is judged
  against;
* ``round-robin`` — deal threads across complexes in arrival order, the
  "what an OS does by default" baseline;
* ``oi-balance`` — sort threads by ECM-weighted memory operational
  intensity and pair opposite extremes, so every co-processor sees mixed
  compute/memory demand;
* ``oi-pack`` — the adversarial inverse (pack similar OI together), kept
  deliberately as the losing bound of the win/loss story;
* ``symbiosis`` (:mod:`repro.alloc.symbiosis`) — pairwise compatibility
  matrix from the ECM co-run prior, solved with greedy max-weight
  matching plus 2-opt improvement.

Policies never simulate: they read the ECM prior at most (symbiosis
calibration routes micro co-runs through the result cache, but that is
opt-in).  The registry lives in :mod:`repro.alloc` (`ALLOC_POLICIES_BY_KEY`).
"""

from __future__ import annotations

import random as _random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.analysis.ecm import EcmModel
from repro.common.config import MachineConfig, experiment_config
from repro.common.errors import ConfigurationError
from repro.compiler.phase_analysis import analyze_kernel

from repro.alloc.placement import (
    DEFAULT_COMPLEX_SIZE,
    Placement,
    ThreadSpec,
    canonical_placement,
    num_complexes,
    thread_order,
    validate_placement,
)


@dataclass(frozen=True)
class AllocContext:
    """Everything a placement decision may consult.

    ``config`` is the *complex* machine (``num_cores == complex_size``),
    not the whole-machine config — allocation reasons about what one
    complex will experience.  ``sharing_key`` is the sharing policy that
    will run within each complex (the symbiosis prior is sharing-aware).
    """

    config: Optional[MachineConfig] = None
    sharing_key: str = "occamy"
    complex_size: int = DEFAULT_COMPLEX_SIZE
    seed: int = 0
    calibrate: bool = False
    calib_scale: float = 0.05
    #: Worker count for calibration co-runs (``None``: ``$REPRO_JOBS``).
    jobs: Union[int, str, None] = None

    def complex_config(self) -> MachineConfig:
        return self.config or experiment_config(num_cores=self.complex_size)


class AllocationPolicy(ABC):
    """One member of the pairing-policy family."""

    key: str = ""
    label: str = ""

    @abstractmethod
    def place(
        self, threads: Sequence[ThreadSpec], context: AllocContext
    ) -> Placement:
        """Partition ``threads`` into complexes (canonical form)."""

    def __call__(
        self, threads: Sequence[ThreadSpec], context: Optional[AllocContext] = None
    ) -> Placement:
        context = context or AllocContext()
        placement = canonical_placement(
            threads, self.place(threads, context)
        )
        return validate_placement(threads, placement, context.complex_size)


def thread_demand(thread: ThreadSpec, config: MachineConfig) -> float:
    """A thread's scalar demand: ECM-cycle-weighted mean memory OI.

    Each phase's ``<OI>.mem`` at its residency level is weighted by the
    phase's predicted solo cycles under elastic grants, so a workload
    dominated by a long streaming phase scores memory-hungry even if a
    short compute phase tops it off.  Higher means more compute-dense
    (OI is flops per byte); lower means more bandwidth-hungry.
    """
    model = EcmModel(config)
    weighted = 0.0
    total = 0.0
    for info in analyze_kernel(thread.kernel):
        level = info.residency_level(config.memory)
        lanes = model.lanes_for("occamy", info)
        cycles = model.phase_prediction(info, lanes, level=level).cycles
        weighted += info.oi_for_level(level).mem * cycles
        total += cycles
    return weighted / total if total else 0.0


def _demand_order(
    threads: Sequence[ThreadSpec], config: MachineConfig
) -> Sequence[int]:
    """Thread indices sorted by demand, ties broken canonically."""
    return sorted(
        range(len(threads)),
        key=lambda i: (thread_demand(threads[i], config), threads[i].key, i),
    )


class RandomAllocation(AllocationPolicy):
    """Seeded uniform shuffle chunked into complexes — the baseline."""

    key = "random"
    label = "Random"

    def place(
        self, threads: Sequence[ThreadSpec], context: AllocContext
    ) -> Placement:
        size = context.complex_size
        num_complexes(threads, size)
        indices = list(range(len(threads)))
        _random.Random(context.seed).shuffle(indices)
        return tuple(
            tuple(indices[start : start + size])
            for start in range(0, len(indices), size)
        )


class RoundRobinAllocation(AllocationPolicy):
    """Deal threads across complexes in arrival order (complex ``i`` gets
    threads ``i``, ``i + C``, ``i + 2C``, ...)."""

    key = "round-robin"
    label = "Round-robin"

    def place(
        self, threads: Sequence[ThreadSpec], context: AllocContext
    ) -> Placement:
        count = num_complexes(threads, context.complex_size)
        return tuple(
            tuple(range(start, len(threads), count)) for start in range(count)
        )


class OiBalanceAllocation(AllocationPolicy):
    """Pair opposite OI extremes so each complex sees mixed demand.

    Threads are sorted by :func:`thread_demand`; complex ``i`` folds the
    sorted order onto itself (lowest with highest, second-lowest with
    second-highest, ...), generalised to wider complexes by serpentine
    dealing.
    """

    key = "oi-balance"
    label = "OI-balance"

    def place(
        self, threads: Sequence[ThreadSpec], context: AllocContext
    ) -> Placement:
        count = num_complexes(threads, context.complex_size)
        order = _demand_order(threads, context.complex_config())
        groups = [[] for _ in range(count)]
        # Serpentine deal: pass 0 forward, pass 1 backward, ... so each
        # complex's members come from opposite ends of the demand order.
        for position, index in enumerate(order):
            round_no, slot = divmod(position, count)
            target = slot if round_no % 2 == 0 else count - 1 - slot
            groups[target].append(index)
        return tuple(tuple(group) for group in groups)


class OiPackAllocation(AllocationPolicy):
    """Pack similar OI together — the adversarial losing bound.

    Adjacent chunks of the demand order: all bandwidth-hungry threads
    fight each other for the channel while compute-dense complexes leave
    it idle.  Exists to bound the win/loss table from below.
    """

    key = "oi-pack"
    label = "OI-pack"

    def place(
        self, threads: Sequence[ThreadSpec], context: AllocContext
    ) -> Placement:
        size = context.complex_size
        num_complexes(threads, size)
        order = _demand_order(threads, context.complex_config())
        return tuple(
            tuple(order[start : start + size])
            for start in range(0, len(order), size)
        )
