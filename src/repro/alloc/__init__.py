"""Thread-to-core placement: which threads share a two-core complex.

Only the frozen ledger's ``ncore16_cold`` set-up calls this; ROADMAP item
1's bench PR deletes it.  What is left is the one policy it times — the
ECM-prior symbiosis matrix solved by greedy + 2-opt matching::

    from repro.alloc import ALLOC_POLICIES_BY_KEY, AllocContext

    placement = ALLOC_POLICIES_BY_KEY["symbiosis"](threads, AllocContext(config))
"""

from __future__ import annotations

from typing import Dict

from repro.alloc.placement import (
    Placement,
    ThreadSpec,
    canonical_placement,
    num_complexes,
    placement_labels,
    thread_order,
    validate_placement,
)
from repro.alloc.symbiosis import (
    AllocContext,
    MatrixEntry,
    SymbiosisAllocation,
    SymbiosisMatrix,
    build_matrix,
    expected_random_matching_weight,
    matching_weight,
    solve_pairing,
)

#: The policy registry, keyed by name (the ledger looks ``symbiosis`` up).
ALLOC_POLICIES_BY_KEY: Dict[str, SymbiosisAllocation] = {
    SymbiosisAllocation.key: SymbiosisAllocation()
}

__all__ = [
    "ALLOC_POLICIES_BY_KEY",
    "AllocContext",
    "MatrixEntry",
    "Placement",
    "SymbiosisAllocation",
    "SymbiosisMatrix",
    "ThreadSpec",
    "build_matrix",
    "canonical_placement",
    "expected_random_matching_weight",
    "matching_weight",
    "num_complexes",
    "placement_labels",
    "solve_pairing",
    "thread_order",
    "validate_placement",
]
