"""Property test: the incremental ready-set index never drifts from a scan.

The tickless dispatch path consumes :meth:`InstructionPool.ready_dispatchable`,
an incrementally maintained wake-heap index, instead of re-scanning the whole
window every cycle.  Its contract is a single invariant:

    pool.ready_dispatchable(cycle)
        == [e for e in scan_view(pool).dispatchable() if e.ready(cycle)]

(``scan_view``: the oracle's list-scan pool over the same window.)

This suite drives randomized sequences of every operation that can touch the
index — program-order pushes (with random dependence edges), dispatch issues
(including zero-latency completions that wake dependants *within* the same
cycle, the cascade case), EM-SIMD barrier execution, in-order commits —
and checks the invariant after every single step.
"""

from __future__ import annotations

import random

import pytest

from repro.coproc.dynamic import (
    DynamicInstruction,
    EntryKind,
    EntryState,
    InstructionPool,
)
from tests.conftest import scan_view

CAPACITY = 12
STEPS = 250
# Includes 0 (store-forward / L0-hit same-cycle completion: the cascade
# path) and fractional latencies (bandwidth-shaped completions).
LATENCIES = (0, 0, 1, 1, 2, 3.5, 5, 0.25, 12)
KINDS = (
    EntryKind.COMPUTE,
    EntryKind.COMPUTE,
    EntryKind.LOAD,
    EntryKind.STORE,
    EntryKind.EMSIMD,
)


def reference_ready(pool: InstructionPool, cycle: int):
    """The from-scratch truth the index must always reproduce."""
    return [e for e in scan_view(pool).dispatchable() if e.ready(cycle)]


class Driver:
    """Randomized exerciser mimicking the coprocessor's pool usage."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pool = InstructionPool(0, CAPACITY)
        self.cycle = 0
        self.next_seq = 0
        self.issues = 0
        self.cascades = 0

    def check(self) -> None:
        got = self.pool.ready_dispatchable(self.cycle)
        want = reference_ready(self.pool, self.cycle)
        assert got == want, (
            f"cycle {self.cycle}: index {[e.seq for e in got]} "
            f"!= scan {[e.seq for e in want]}"
        )
        # The zero-dispatch stall path anchors on the oldest dispatchable
        # WAITING entry; the index must name the same one as a full scan.
        dispatchable = scan_view(self.pool).dispatchable()
        want_oldest = dispatchable[0].seq if dispatchable else None
        assert self.pool.oldest_waiting_seq() == want_oldest

    # -- operations ----------------------------------------------------

    def op_push(self) -> None:
        if self.pool.full:
            return
        kind = self.rng.choice(KINDS)
        deps = ()
        if kind is not EntryKind.EMSIMD:
            producers = [e for e in self.pool.entries() if e.kind is not EntryKind.EMSIMD]
            if producers:
                deps = tuple(
                    self.rng.sample(
                        producers, k=self.rng.randint(0, min(3, len(producers)))
                    )
                )
        entry = DynamicInstruction(
            seq=self.next_seq,
            core=0,
            kind=kind,
            instr=None,
            vl_lanes=8,
            transmit_cycle=self.cycle,
            deps=deps,
        )
        self.next_seq += 1
        self.pool.push(entry)

    def op_issue(self) -> None:
        """Issue like a dispatcher does: pick from the reference-ready
        set, assign a completion, notify the index."""
        ready = reference_ready(self.pool, self.cycle)
        if not ready:
            return
        entry = self.rng.choice(ready)
        entry.state = EntryState.ISSUED
        entry.complete_cycle = self.cycle + self.rng.choice(LATENCIES)
        self.issues += 1
        self.pool.on_issue(entry, self.cycle)
        was_ready = {e.seq for e in ready}
        if any(e.seq not in was_ready for e in reference_ready(self.pool, self.cycle)):
            self.cascades += 1

    def op_execute_emsimd(self) -> None:
        """EM-SIMD runs in order from a drained head (§4.2.2)."""
        head = self.pool.head()
        if head is None or head.kind is not EntryKind.EMSIMD:
            return
        if any(e.state is EntryState.ISSUED for e in self.pool.entries()):
            return
        head.state = EntryState.DONE
        head.complete_cycle = self.cycle + 1
        self.pool.on_issue(head, self.cycle)

    def op_commit(self) -> None:
        self.pool.commit_ready(self.cycle, width=self.rng.randint(1, 4))

    def op_advance(self) -> None:
        self.cycle += self.rng.randint(1, 3)

    def run(self) -> None:
        ops = (
            (self.op_push, 30),
            (self.op_issue, 25),
            (self.op_execute_emsimd, 6),
            (self.op_commit, 12),
            (self.op_advance, 18),
        )
        weights = [w for _, w in ops]
        funcs = [f for f, _ in ops]
        for _ in range(STEPS):
            self.rng.choices(funcs, weights)[0]()
            self.check()


@pytest.mark.parametrize("seed", range(25))
def test_index_equals_scan(seed):
    driver = Driver(seed)
    driver.run()
    # The sequence must have actually dispatched work, or the invariant
    # was tested against an empty pool.
    assert driver.issues > 0


def test_cascade_paths_are_exercised():
    """Across the seed set, same-cycle wakes (an issue that makes a
    dependant ready at the very same cycle) occur — the exact case that
    diverged dispatch order before dispatch re-queried the index there."""
    cascades = 0
    for seed in range(25):
        driver = Driver(seed)
        driver.run()
        cascades += driver.cascades
    assert cascades > 0


def test_zero_latency_wake_is_visible_same_cycle():
    """Deterministic miniature of the cascade: B depends on A; A issues
    with a same-cycle completion; B must appear in the index at the same
    cycle without any rebuild."""
    pool = InstructionPool(0, 8)
    a = DynamicInstruction(
        seq=0, core=0, kind=EntryKind.LOAD, instr=None, vl_lanes=8, transmit_cycle=0
    )
    b = DynamicInstruction(
        seq=1,
        core=0,
        kind=EntryKind.COMPUTE,
        instr=None,
        vl_lanes=8,
        transmit_cycle=0,
        deps=(a,),
    )
    pool.push(a)
    pool.push(b)
    assert pool.ready_dispatchable(5) == [a]
    a.state = EntryState.ISSUED
    a.complete_cycle = 5  # store-forwarded: completes the cycle it issues
    pool.on_issue(a, 5)
    assert pool.ready_dispatchable(5) == [b]
    assert reference_ready(pool, 5) == [b]


def test_future_completion_wakes_later():
    pool = InstructionPool(0, 8)
    a = DynamicInstruction(
        seq=0, core=0, kind=EntryKind.LOAD, instr=None, vl_lanes=8, transmit_cycle=0
    )
    b = DynamicInstruction(
        seq=1,
        core=0,
        kind=EntryKind.COMPUTE,
        instr=None,
        vl_lanes=8,
        transmit_cycle=0,
        deps=(a,),
    )
    pool.push(a)
    pool.push(b)
    pool.ready_dispatchable(0)
    a.state = EntryState.ISSUED
    a.complete_cycle = 7.5
    pool.on_issue(a, 0)
    assert pool.ready_dispatchable(7) == []
    assert pool.ready_dispatchable(8) == [b]
