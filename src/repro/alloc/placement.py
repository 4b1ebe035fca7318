"""Thread/placement primitives for the allocation layer.

A :class:`Placement` partitions a thread set into equal-sized
*complexes* — each the paper's evaluated two-core machine — before any
simulation runs.  Two invariants make the decision checkable:

* **Canonical form** — threads within a complex and complexes within a
  placement are ordered deterministically (by thread sort key), so the
  same unordered pair-set is the same placement, bit for bit.
* **Validation** — every thread appears in exactly one complex and every
  complex has exactly ``complex_size`` members; violations raise
  :class:`~repro.common.errors.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.compiler.ir import Kernel

#: A placement: one tuple of thread indices per complex.
Placement = Tuple[Tuple[int, ...], ...]

#: Default complex width — the paper's evaluated two-core machine.
DEFAULT_COMPLEX_SIZE = 2


@dataclass(frozen=True)
class ThreadSpec:
    """One schedulable thread, as the allocation layer sees it.

    ``key`` is the thread's stable identity (e.g. ``"spec:15"``): two
    threads with equal keys are interchangeable for placement purposes,
    which is what lets the symbiosis matrix deduplicate symmetric pairs.
    ``kernel`` feeds the ECM analysis the matrix is built from.
    """

    key: str
    kernel: Kernel


def thread_order(threads: Sequence[ThreadSpec]) -> Tuple[int, ...]:
    """Thread indices sorted by (key, index) — the canonical total order."""
    return tuple(sorted(range(len(threads)), key=lambda i: (threads[i].key, i)))


def num_complexes(threads: Sequence[ThreadSpec], complex_size: int) -> int:
    """How many complexes the thread set fills; validates divisibility."""
    if complex_size < 1:
        raise ConfigurationError(
            f"complex_size must be positive, got {complex_size}"
        )
    if not threads:
        raise ConfigurationError("allocation needs at least one thread")
    if len(threads) % complex_size != 0:
        raise ConfigurationError(
            f"{len(threads)} thread(s) do not fill complexes of "
            f"{complex_size} core(s) evenly"
        )
    return len(threads) // complex_size


def canonical_placement(
    threads: Sequence[ThreadSpec], complexes: Sequence[Sequence[int]]
) -> Placement:
    """The canonical form of a placement decision.

    Within each complex, thread indices are ordered by ``(key, index)``;
    complexes are then ordered by their member sort keys.  Canonical form
    is what makes placement order-irrelevant: ``(A, B)`` and ``(B, A)``
    collapse to one simulation with one cache key.
    """
    def sort_key(index: int) -> Tuple[str, int]:
        return (threads[index].key, index)

    ordered = [tuple(sorted(group, key=sort_key)) for group in complexes]
    ordered.sort(key=lambda group: tuple(sort_key(i) for i in group))
    return tuple(ordered)


def validate_placement(
    threads: Sequence[ThreadSpec],
    placement: Placement,
    complex_size: int = DEFAULT_COMPLEX_SIZE,
) -> Placement:
    """Check ``placement`` is a partition into equal complexes.

    Returns the placement unchanged; raises ``ConfigurationError`` naming
    the first violation (wrong complex width, missing or repeated thread,
    out-of-range index).
    """
    expected = num_complexes(threads, complex_size)
    if len(placement) != expected:
        raise ConfigurationError(
            f"placement has {len(placement)} complex(es), expected {expected}"
        )
    seen = set()
    for group in placement:
        if len(group) != complex_size:
            raise ConfigurationError(
                f"complex {group} has {len(group)} member(s), expected "
                f"{complex_size}"
            )
        for index in group:
            if not 0 <= index < len(threads):
                raise ConfigurationError(
                    f"placement names thread index {index} outside "
                    f"0..{len(threads) - 1}"
                )
            if index in seen:
                raise ConfigurationError(
                    f"thread index {index} placed more than once"
                )
            seen.add(index)
    return placement


def placement_labels(
    threads: Sequence[ThreadSpec], placement: Placement
) -> Tuple[str, ...]:
    """One stable ``key+key`` label per complex (canonical member order)."""
    return tuple(
        "+".join(threads[index].key for index in group) for group in placement
    )
