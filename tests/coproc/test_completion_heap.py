"""Property test: the completion heap never drifts from the window scan.

The fast engine's :meth:`InstructionPool.next_completion` answers from a
lazily pruned min-heap of issued entries' completion cycles; the oracle's
``ScanPool`` scans the whole window.  The contract is one invariant, for
any query cycle:

    pool.next_completion(cycle) == scan_view(pool).next_completion(cycle)

The heap is fed where entries become ISSUED/DONE (``on_issue``).  This
suite reuses the ready-index exerciser (pushes, issues of every kind with
zero / fractional latencies, EM-SIMD head completion, commits) and checks
the invariant after every step — at the current cycle and at query cycles
that jump forwards *and backwards*.
"""

from __future__ import annotations

import pytest

from repro.core.machine import Machine
from repro.core.policies import policy
from repro.coproc.dynamic import InstructionPool
from tests.conftest import (
    compiled_job,
    make_axpy,
    make_reduction,
    make_stencil,
    make_two_phase,
    run_fingerprint,
    scan_view,
)
from tests.coproc.test_ready_index import CAPACITY, Driver


def scan_next_completion(pool: InstructionPool, cycle: float):
    """The oracle's scan body, run over ``pool``'s live entries."""
    return scan_view(pool).next_completion(cycle)


class HeapDriver(Driver):
    """The ready-index exerciser, checking the completion heap as well."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.answers = 0
        self.rewinds = 0

    def check(self) -> None:
        super().check()
        # The run loop's own query first, then cycles on either side of it
        # in no particular order (a backwards query must not trust a heap
        # already pruned past it).
        queries = [self.cycle] + [
            self.cycle + self.rng.choice((-4, -1, -0.5, 0.25, 1, 2, 6))
            for _ in range(3)
        ]
        for before, cycle in zip([None] + queries, queries):
            got = self.pool.next_completion(cycle)
            assert got == scan_next_completion(self.pool, cycle), (
                f"cycle {self.cycle}, query {cycle}: heap says {got}"
            )
            self.answers += got is not None
            self.rewinds += before is not None and cycle < before

    def run(self) -> None:
        for _ in range(5):
            super().run()


@pytest.mark.parametrize("seed", range(25))
def test_heap_equals_scan(seed):
    driver = HeapDriver(seed)
    driver.run()
    assert driver.issues > 0
    # Vacuity guards: real completions were reported, and queries did go
    # backwards in time.
    assert driver.answers > 0
    assert driver.rewinds > 0


def test_heap_stays_within_the_window():
    """Pruning on push bounds the heap even if nobody ever queries it (FTS
    never sleeps, so nothing asks for the next completion for long spans)."""
    driver = Driver(3)
    peak = 0
    original_check = driver.check

    def check() -> None:
        nonlocal peak
        original_check()
        peak = max(peak, len(driver.pool._completions))

    driver.check = check
    driver.run()
    assert 0 < peak <= CAPACITY


def _four_core_jobs():
    return [
        compiled_job(make_axpy(1536, 2), 0),
        compiled_job(make_two_phase(384), 1),
        compiled_job(make_stencil(768), 2),
        compiled_job(make_reduction(768, 2), 3),
    ]


@pytest.mark.parametrize("policy_key", ["occamy", "cts"])
def test_component_wake_cycles_match_the_scan(policy_key, config4, monkeypatch):
    """The tickless scheduler's sleep decisions see identical wake cycles
    whether the pools answer from the heap or from the window scan."""

    def wake_trace():
        trace = []
        original = Machine._component_wake

        def traced(self, component, cycle):
            wake = original(self, component, cycle)
            trace.append((component, cycle, wake))
            return wake

        with monkeypatch.context() as patch:
            patch.setattr(Machine, "_component_wake", traced)
            result = Machine(config4, policy(policy_key), _four_core_jobs()).run()
        return trace, run_fingerprint(result)

    heap_trace, heap_print = wake_trace()
    monkeypatch.setattr(InstructionPool, "next_completion", scan_next_completion)
    scan_trace, scan_print = wake_trace()
    assert heap_trace == scan_trace
    assert heap_print == scan_print
    # The runs must actually have slept on pool completions.
    assert sum(1 for _c, _cycle, wake in heap_trace if wake is not None) > 50
