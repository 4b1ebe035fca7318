"""Property test: the wake heap never drifts from the window scan.

The pool's one heap holds ``(wake, seq, entry)`` for every WAITING entry
whose producers have all issued, keyed by the cycle the last of their
results completes; the tickless scheduler reads its top as the
component's ready-wake (``Machine._component_wake``).  Its contract, for
the exerciser's state after every step (the step's dispatch query has
drained every wake ``<= cycle``):

    heap == {(operand_wake(e), e) for WAITING e whose producers all
             issued, if operand_wake(e) > cycle}

with ``operand_wake`` worked out from the entry's ``deps`` alone.  The
deadlock check's ``next_completion`` must equal the oracle's window scan
as well, at query cycles either side of the current one.
"""

from __future__ import annotations

from math import ceil

import pytest

from repro.core.machine import Machine
from repro.core.policies import policy
from repro.coproc.dynamic import EntryKind, EntryState, InstructionPool
from repro.coproc.sharing import SharingMode
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


def operand_wakes(pool: InstructionPool):
    """``(entry, wake)`` for each WAITING entry whose producers all issued,
    worked out from its ``deps`` by a window scan."""
    return [
        (entry, max((ceil(dep.complete_cycle) for dep in entry.deps), default=0))
        for entry in pool._entries
        if entry.kind is not EntryKind.EMSIMD
        and entry.state is EntryState.WAITING
        and all(dep.state is not EntryState.WAITING for dep in entry.deps)
    ]


class HeapDriver(Driver):
    """The ready-index exerciser, checking the wake heap as well."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.answers = 0
        self.future_wakes = 0

    def check(self) -> None:
        super().check()
        want = {
            entry.seq: wake
            for entry, wake in operand_wakes(self.pool)
            if wake > self.cycle
        }
        got = {seq: wake for wake, seq, _entry in self.pool._wake_heap}
        assert got == want, f"cycle {self.cycle}: heap {got} != scan {want}"
        self.future_wakes += len(got)
        for cycle in [self.cycle] + [
            self.cycle + self.rng.choice((-4, -1, -0.5, 0.25, 1, 2, 6))
            for _ in range(3)
        ]:
            answer = self.pool.next_completion(cycle)
            assert answer == scan_view(self.pool).next_completion(cycle)
            self.answers += answer is not None

    def run(self) -> None:
        for _ in range(5):
            super().run()


@pytest.mark.parametrize("seed", range(25))
def test_heap_equals_scan(seed):
    driver = HeapDriver(seed)
    driver.run()
    assert driver.issues > 0
    # Vacuity guards: entries did wait in the heap for future operands, and
    # real completions were reported.
    assert driver.future_wakes > 0
    assert driver.answers > 0


def test_heap_stays_within_the_window():
    """The wake heap, the ready list and the waiting deque hold window
    entries only, even while nobody asks for the oldest waiting entry (a
    busy stretch): ``commit_ready`` alone trims the deque."""
    driver = Driver(3)
    peak = 0

    def check() -> None:
        nonlocal peak
        pool = driver.pool
        pool.ready_dispatchable(driver.cycle)
        peak = max(peak, len(pool._wake_heap), len(pool._ready), len(pool._waiting))
        window = {id(entry) for entry in pool._entries}
        assert all(id(entry) in window for entry in pool._waiting)

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


def scan_component_wake(machine: Machine, component: int, cycle: int):
    """``Machine._component_wake`` with its pool terms worked out from the
    window: the head's completion, and the earliest operand wake among the
    entries the dispatch query has not yet taken (``_ready``) — skipped if
    one of those is already due (a CTS non-owner's)."""
    pool = machine.coproc.pools[component]
    earliest = float("inf")
    head = pool.head()
    if head is not None and head.state is not EntryState.WAITING:
        earliest = head.complete_cycle
    ready = {id(entry) for entry in pool._ready}
    undrained = [
        wake for entry, wake in operand_wakes(pool) if id(entry) not in ready
    ]
    if undrained and cycle < min(undrained) < earliest:
        earliest = min(undrained)
    for other in (
        machine.coproc.lsus[component].next_store_retire(cycle),
        machine.cores[component].next_event_cycle(cycle),
    ):
        if other is not None and other < earliest:
            earliest = other
    if machine.coproc.mode is SharingMode.COARSE_TEMPORAL:
        for boundary in (machine.coproc._cts_blocked_until, machine.coproc._cts_until):
            if cycle < boundary < earliest:
                earliest = boundary
    return None if earliest == float("inf") else int(ceil(earliest))


@pytest.mark.parametrize("policy_key", ["occamy", "cts"])
def test_component_wake_cycles_match_the_scan(policy_key, config4, monkeypatch):
    """The tickless scheduler's sleep decisions see identical wake cycles
    whether the pools answer from the wake heap or from the window scan."""

    def wake_trace(wake):
        trace = []

        def traced(self, component, cycle):
            answer = wake(self, component, cycle)
            trace.append((component, cycle, answer))
            return answer

        with monkeypatch.context() as patch:
            patch.setattr(Machine, "_component_wake", traced)
            result = Machine(config4, policy(policy_key), _four_core_jobs()).run()
        return trace, run_fingerprint(result)

    heap_trace, heap_print = wake_trace(Machine._component_wake)
    scan_trace, scan_print = wake_trace(scan_component_wake)
    assert heap_trace == scan_trace
    assert heap_print == scan_print
    # The runs must actually have slept on pool events.
    assert sum(1 for _c, _cycle, wake in heap_trace if wake is not None) > 50
