"""Failure guards of :meth:`Machine.run` under both engines.

The deadlock detector and the ``max_cycles`` budget must fire at exactly
the same cycle under the fast engine (idle fast-forward on the tickless
event wheel) and the oracle (``ReferenceMachine``'s cycle-by-cycle loop) — the
``ff-wheel`` and ``slow-ref`` parameters below.  A fast-forward jump to a
real future event can overshoot neither guard (events keep the machine live);
a jump with *no* future event is capped at the deadlock horizon and at
``max_cycles`` so a skipped stretch can never leap over a failure.
"""

from __future__ import annotations

import pytest

import repro.core.machine as machine_mod
from repro.common.errors import DeadlockError, SimulationError
from repro.coproc.dynamic import DynamicInstruction, EntryKind
from repro.core.machine import Machine
from repro.core.policies import PRIVATE
from repro.validation.difftest import run_forced
from repro.validation.reference_engine import ReferenceMachine

from tests.conftest import BOTH_ENGINES, compiled_job, make_axpy

WINDOW = 5_000


def _wedged_machine(config, machine_class=Machine) -> Machine:
    """A machine guaranteed to stop making progress.

    A poison entry sits at core 0's pool head, depending on a "ghost"
    instruction that is in no pool and never completes: the poison entry
    never becomes ready, so nothing behind it can commit, the pool never
    drains, and core 0 can never finish.
    """
    machine = machine_class(
        config, PRIVATE, [compiled_job(make_axpy(length=64)), None]
    )
    ghost = DynamicInstruction(
        seq=-1, core=0, kind=EntryKind.COMPUTE, instr=None, vl_lanes=1,
        transmit_cycle=0,
    )
    poison = DynamicInstruction(
        seq=-2, core=0, kind=EntryKind.COMPUTE, instr=None, vl_lanes=1,
        transmit_cycle=0, deps=(ghost,),
    )
    machine.coproc.pools[0].push(poison)
    return machine


class _StepCounter:
    """Stands in for the auditor: counts the end-of-cycle audits."""

    n = 0

    def check_machine(self, cycle: int) -> None:
        self.n += 1


def _counting(machine: Machine, method: str):
    """Wrap the engine's per-cycle ``method`` with a call counter."""
    calls = {"n": 0}
    original = getattr(machine, method)

    def counted(*args):
        calls["n"] += 1
        return original(*args)

    setattr(machine, method, counted)
    return calls


@BOTH_ENGINES
def test_deadlock_detected(config, monkeypatch, machine_class):
    monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
    with pytest.raises(DeadlockError):
        _wedged_machine(config, machine_class).run()


def test_deadlock_fires_at_identical_cycle(config, monkeypatch):
    """The error message embeds the last-progress cycle: must match."""
    monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
    messages = []
    for machine_class in (Machine, ReferenceMachine):
        with pytest.raises(DeadlockError) as excinfo:
            _wedged_machine(config, machine_class).run()
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]


@BOTH_ENGINES
def test_a_forced_run_detects_the_deadlock_too(config, monkeypatch, machine_class):
    """``run_forced`` steps cycle by cycle and gives up where the engine's
    own loop does, with the same message, not at its ``max_cycles``."""
    monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
    with pytest.raises(DeadlockError) as own:
        _wedged_machine(config, machine_class).run()
    with pytest.raises(DeadlockError) as forced:
        run_forced(_wedged_machine(config, machine_class), (16,), max_cycles=10 * WINDOW)
    assert str(forced.value) == str(own.value)


def test_fast_forward_actually_skips(config, monkeypatch):
    """The fast engine's deadlock path steps far fewer times than the
    window; the reference loop really walks every cycle of it."""
    monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
    machine = _wedged_machine(config)
    calls = _StepCounter()
    machine.auditor = calls  # both run bodies call it once per stepped cycle
    with pytest.raises(DeadlockError):
        machine.run()
    assert 0 < calls.n < WINDOW / 10

    slow = _wedged_machine(config, ReferenceMachine)
    slow_calls = _counting(slow, "step")
    with pytest.raises(DeadlockError):
        slow.run()
    assert slow_calls["n"] > WINDOW  # the cycle-by-cycle loop really loops


@BOTH_ENGINES
def test_max_cycles_budget(config, machine_class):
    machine = machine_class(
        config, PRIVATE, [compiled_job(make_axpy(length=64)), None]
    )
    with pytest.raises(SimulationError, match="exceeded 50 cycles"):
        machine.run(max_cycles=50)


def test_max_cycles_metrics_identical(config):
    """Both engines stop at the same point with the same counters."""
    counters = []
    for machine_class in (Machine, ReferenceMachine):
        machine = machine_class(
            config, PRIVATE, [compiled_job(make_axpy(length=256)), None]
        )
        with pytest.raises(SimulationError):
            machine.run(max_cycles=200)
        m = machine.metrics
        counters.append(
            (
                tuple(m.compute_uops),
                tuple(m.ldst_uops),
                tuple(
                    tuple(sorted((r.name, n) for r, n in per_core.items()))
                    for per_core in m.stalls
                ),
            )
        )
    assert counters[0] == counters[1]
