"""Symbiosis-aware pairing: compatibility matrix + max-weight matching.

The symbiosis policy scores every unordered pair of threads by the
predicted *co-run makespan* of a 2-core complex running them — straight
from the ECM cycle prior (arXiv 1509.03118), with the shared L2/DRAM
ceilings halved and (for spatial sharing policies) the lane pool split.
No simulation is needed to build the matrix.

A pair's matching weight is ``-(log t_a + log t_b)`` where ``t_a, t_b``
are the two threads' predicted drain times in the co-run, so maximising
total matching weight minimises the *product* — hence the geometric
mean — of per-thread drain cycles across the whole machine (the
co-scheduling literature's geomean-of-per-thread-performance, inverted
to cycles).

The solver is greedy max-weight matching refined by 2-opt pair swaps to
a fixed point.  A 2-opt-stable matching is never worse than the expected
weight of a uniform random matching: for any two matched edges
``(a,b),(c,d)`` stability gives ``2(w_ab + w_cd) >= w_ac + w_bd + w_ad +
w_bc``; summing over all edge pairs yields ``W >= S/(n-1)`` where ``S``
is the total weight of all unordered pairs and ``S/(n-1)`` is exactly
the random expectation (each specific pair is matched with probability
``1/(n-1)``).  The property test in ``tests/alloc`` pins this bound.

Only the frozen ledger's ``ncore16_cold`` set-up calls this; ROADMAP
item 1's bench PR deletes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.ecm import TEMPORAL_POLICIES, EcmModel
from repro.common.config import MachineConfig
from repro.common.errors import ConfigurationError
from repro.compiler.ir import Kernel

from repro.alloc.placement import (
    DEFAULT_COMPLEX_SIZE,
    Placement,
    ThreadSpec,
    canonical_placement,
    num_complexes,
    validate_placement,
)

#: Floor for matrix costs so ``-log(cost)`` stays finite.
_MIN_COST = 1e-9


def matrix_key(key_a: str, key_b: str) -> Tuple[str, str]:
    """The canonical (sorted) identity of an unordered thread pair."""
    return (key_a, key_b) if key_a <= key_b else (key_b, key_a)


@dataclass(frozen=True)
class AllocContext:
    """Everything a placement decision consults.

    ``config`` is the *complex* machine (two cores), not the whole
    machine: the matrix reasons about what one complex will experience.
    ``sharing_key`` is the sharing policy that will run within each
    complex (the prior is sharing-aware).
    """

    config: MachineConfig
    sharing_key: str = "occamy"


@dataclass(frozen=True)
class MatrixEntry:
    """One pair's compatibility score.

    ``drains`` are the two threads' ECM-predicted co-run drain times in
    cycles, in canonical key order; lower is better.
    """

    drains: Tuple[float, float]

    @property
    def cost(self) -> float:
        """The pair's makespan: the slower thread's drain."""
        return max(self.drains)

    @property
    def weight(self) -> float:
        """Matching weight: minus the summed log drains, so a maximum-
        weight matching minimises the product of per-thread drains."""
        return -sum(math.log(max(t, _MIN_COST)) for t in self.drains)


@dataclass(frozen=True)
class SymbiosisMatrix:
    """Pairwise compatibility, keyed by unordered thread-key pairs."""

    sharing_key: str
    entries: Tuple[Tuple[Tuple[str, str], MatrixEntry], ...]

    def _lookup(self) -> Dict[Tuple[str, str], MatrixEntry]:
        return dict(self.entries)

    def entry(self, key_a: str, key_b: str) -> MatrixEntry:
        key = matrix_key(key_a, key_b)
        table = self._lookup()
        if key not in table:
            raise ConfigurationError(
                f"symbiosis matrix has no entry for pair {key}"
            )
        return table[key]

    def cost(self, key_a: str, key_b: str) -> float:
        return self.entry(key_a, key_b).cost

    def weight(self, key_a: str, key_b: str) -> float:
        return self.entry(key_a, key_b).weight


def _kernel_profile(
    kernel: Kernel, config: MachineConfig, sharing_key: str, solo: EcmModel
) -> Tuple[float, float]:
    """A kernel's resource appetite from its *solo* ECM decomposition:
    ``(memory pressure, mean lane demand)``.

    Memory pressure is the cycle fraction the solo run spends bound on
    the shared L2/DRAM links; lane demand is the cycle-weighted mean
    lane grant.  These are what a co-runner actually takes away from its
    partner.
    """
    prediction = solo.predict_kernel(kernel, sharing_key)
    cycles = prediction.cycles or 1.0
    mem_cycles = sum(
        phase.cycles
        for phase in prediction.phases
        if phase.bottleneck in ("l2", "mem")
    )
    lane_cycles = sum(phase.lanes * phase.cycles for phase in prediction.phases)
    return mem_cycles / cycles, lane_cycles / cycles


def predicted_pair_drains(
    kernels: Sequence[Kernel], config: MachineConfig, sharing_key: str
) -> Tuple[float, ...]:
    """ECM prior for a complex co-running ``kernels``: per-thread drains.

    The coupling is what makes pairs distinguishable (a partner-blind
    prior is additive across threads and every matching ties):

    * **bandwidth** — a thread's share of the L2/DRAM channel is
      ``1 / (1 + partner memory pressure)``: a Vec-Cache-resident
      partner leaves the channel alone, a streaming partner halves it;
    * **lanes** (spatial elastic policies) — a thread may grow into
      whatever the partner's mean lane demand leaves free, but is always
      guaranteed its fair share: ``cap = max(total/n, total - partner
      demand)``.  Temporal policies time-share the full pool and the
      private baseline keeps its fixed split.
    """
    runners = max(1, len(kernels))
    solo = EcmModel(config)
    profiles = [
        _kernel_profile(kernel, config, sharing_key, solo) for kernel in kernels
    ]
    total = config.vector.total_lanes
    fair = max(1, total // runners)
    drains = []
    for index, kernel in enumerate(kernels):
        others = [profiles[j] for j in range(runners) if j != index]
        pressure = sum(mem for mem, _lanes in others)
        model = EcmModel(config, bandwidth_share=1.0 / (1.0 + pressure))
        if sharing_key in TEMPORAL_POLICIES:
            cap = None
        elif sharing_key == "private":
            cap = fair
        else:  # occamy / vls: elastic into the partner's slack
            partner_lanes = sum(lanes for _mem, lanes in others)
            cap = max(fair, int(total - partner_lanes))
        drains.append(
            model.predict_kernel(kernel, sharing_key, max_lanes=cap).cycles
        )
    return tuple(drains)


def candidate_pairs(threads: Sequence[ThreadSpec]) -> List[Tuple[str, str]]:
    """Every unordered key pair a placement could form, deduplicated.

    Symmetric pairs (A,B)/(B,A) collapse to one entry; self-pairs (A,A)
    appear only when the thread multiset actually holds two A's.
    """
    from repro.workloads.pairs import dedup_unordered

    return dedup_unordered([thread.key for thread in threads])


def build_matrix(
    threads: Sequence[ThreadSpec], context: AllocContext
) -> SymbiosisMatrix:
    """The ECM-prior compatibility matrix (no simulation)."""
    config = context.config
    kernels = {thread.key: thread.kernel for thread in threads}
    entries = []
    for key_a, key_b in candidate_pairs(threads):
        drains = predicted_pair_drains(
            [kernels[key_a], kernels[key_b]], config, context.sharing_key
        )
        entries.append(
            ((key_a, key_b), MatrixEntry(drains=tuple(drains)))
        )
    return SymbiosisMatrix(
        sharing_key=context.sharing_key, entries=tuple(entries)
    )


# --- the matching solver -----------------------------------------------------


def expected_random_matching_weight(
    weights: Sequence[Sequence[float]],
) -> float:
    """Expected total weight of a uniform random perfect matching.

    In a uniform random perfect matching on ``n`` vertices each specific
    pair is matched with probability ``1/(n-1)``, so the expectation is
    the total pairwise weight divided by ``n - 1``.
    """
    n = len(weights)
    if n < 2:
        return 0.0
    total = sum(
        weights[i][j] for i in range(n) for j in range(i + 1, n)
    )
    return total / (n - 1)


def solve_pairing(
    weights: Sequence[Sequence[float]],
) -> Tuple[Tuple[int, int], ...]:
    """Max-weight perfect matching: greedy seed + 2-opt to a fixed point.

    ``weights`` is a symmetric ``n x n`` table (``n`` even; the diagonal
    is ignored).  Deterministic: ties break toward lower indices.  The
    2-opt fixed point guarantees the result never scores below the
    random-matching expectation (see the module docstring).
    """
    n = len(weights)
    if n % 2 != 0:
        raise ConfigurationError(
            f"matching needs an even vertex count, got {n}"
        )
    for row in weights:
        if len(row) != n:
            raise ConfigurationError("weight matrix must be square")
    if n == 0:
        return ()

    # Greedy seed: heaviest compatible edges first.
    edges = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda edge: (-weights[edge[0]][edge[1]], edge),
    )
    matched: Dict[int, int] = {}
    for i, j in edges:
        if i not in matched and j not in matched:
            matched[i] = j
            matched[j] = i
    pairs = sorted(
        (min(i, j), max(i, j)) for i, j in matched.items() if i < j
    )

    # 2-opt: rewire any two pairs when either alternative weighs more.
    improved = True
    while improved:
        improved = False
        for x in range(len(pairs)):
            for y in range(x + 1, len(pairs)):
                a, b = pairs[x]
                c, d = pairs[y]
                current = weights[a][b] + weights[c][d]
                cross1 = weights[a][c] + weights[b][d]
                cross2 = weights[a][d] + weights[b][c]
                best = max(cross1, cross2)
                if best > current + 1e-12:
                    if cross1 >= cross2:
                        pairs[x] = (min(a, c), max(a, c))
                        pairs[y] = (min(b, d), max(b, d))
                    else:
                        pairs[x] = (min(a, d), max(a, d))
                        pairs[y] = (min(b, c), max(b, c))
                    improved = True
        # loop until a full pass makes no swap
    return tuple(sorted(pairs))


def matching_weight(
    weights: Sequence[Sequence[float]], pairs: Sequence[Tuple[int, int]]
) -> float:
    """Total weight of a matching under ``weights``."""
    return sum(weights[i][j] for i, j in pairs)


# --- the policy --------------------------------------------------------------


class SymbiosisAllocation:
    """ECM-prior compatibility matrix + matching, in canonical form."""

    key = "symbiosis"

    def __call__(
        self, threads: Sequence[ThreadSpec], context: AllocContext
    ) -> Placement:
        num_complexes(threads, DEFAULT_COMPLEX_SIZE)
        matrix = build_matrix(threads, context)
        n = len(threads)
        weights = [
            [
                (
                    matrix.weight(threads[i].key, threads[j].key)
                    if i != j
                    else 0.0
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        placement = canonical_placement(threads, solve_pairing(weights))
        return validate_placement(threads, placement)
