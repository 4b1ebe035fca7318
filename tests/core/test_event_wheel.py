"""The tickless event wheel: wake index, engine selection, deadlock windows.

Unit-level coverage of the wake-index contract of
:class:`repro.core.machine.EventWheel` plus the run-loop
properties around it: nothing selects an engine (the deleted ``REPRO_NO_*``
kill switches are inert, the ``reference=`` / ``indexed=`` parameters are
gone — the oracle is a module), and the satellite fix that
a *legitimate* long skip — a memory-bound stretch far wider than
``DEADLOCK_WINDOW`` — is never misreported as a hang (the detector requires
the machine to have no future event at all, under both engines).
"""

from __future__ import annotations

import inspect

import repro.core.machine as machine_mod
from repro.coproc.coprocessor import CoProcessor
from repro.coproc.dynamic import InstructionPool
from repro.core.machine import EventWheel, Machine, run_policy
from repro.core.policies import PRIVATE, policy
from repro.core.scalar_core import ScalarCore
from repro.validation.difftest import CompiledCase

from tests.conftest import (
    BOTH_ENGINES,
    REMOVED_KILL_SWITCHES,
    compiled_job,
    make_axpy,
    make_two_phase,
    run_fingerprint,
)


class TestEventWheel:
    def test_schedule_and_due(self):
        wheel = EventWheel()
        wheel.schedule(0, 10)
        wheel.schedule(1, 12)
        assert len(wheel) == 2
        assert wheel.wake_of(0) == 10
        assert wheel.next_wake() == 10
        assert wheel.due(9) == []
        assert wheel.due(10) == [0]
        assert len(wheel) == 1
        assert wheel.next_wake() == 12

    def test_due_recovers_overshot_wakes(self):
        """Wakes the clock jumped past are still returned (and popped)."""
        wheel = EventWheel()
        wheel.schedule(0, 5)
        wheel.schedule(1, 7)
        wheel.schedule(2, 40)
        assert wheel.due(20) == [0, 1]
        assert wheel.due(20) == []
        assert wheel.next_wake() == 40

    def test_reschedule_moves_the_wake(self):
        wheel = EventWheel()
        wheel.schedule(0, 10)
        wheel.schedule(0, 300)  # the stale (10, 0) heap entries must not fire
        assert wheel.due(10) == []
        assert wheel.wake_of(0) == 300
        assert wheel.due(300) == [0]

    def test_cancel_is_idempotent(self):
        wheel = EventWheel()
        wheel.schedule(3, 9)
        wheel.cancel(3)
        wheel.cancel(3)
        assert len(wheel) == 0
        assert wheel.next_wake() is None

    def test_bucket_collisions(self):
        """Components due at one cycle are all returned, sorted."""
        wheel = EventWheel()
        wheel.schedule(3, 8)
        wheel.schedule(0, 8)
        wheel.schedule(1, 12)
        assert wheel.due(8) == [0, 3]
        assert wheel.due(12) == [1]


class TestKillSwitch:
    @staticmethod
    def _jobs():
        return [
            compiled_job(make_two_phase(length=512), 0),
            compiled_job(make_two_phase(length=512), 1),
        ]

    def test_env_variable(self, config, monkeypatch):
        """The deleted kill switches select nothing: with all seven set the
        default machine is still the full fast engine, counter for counter."""
        plain = Machine(config, policy("occamy"), self._jobs())
        plain_result = plain.run()
        for name in REMOVED_KILL_SWITCHES:
            monkeypatch.setenv(name, "1")
        switched = Machine(config, policy("occamy"), self._jobs())
        assert type(switched.coproc) is CoProcessor
        assert run_fingerprint(switched.run()) == run_fingerprint(plain_result)
        assert switched.profile == plain.profile
        assert switched.profile.fastforward_cycles > 0
        assert switched.profile.batched_dispatch_calls > 0

    def test_explicit_argument_wins(self, config):
        """There is no argument left to win: no engine selector in any
        signature, and nothing the oracle runs is an attribute of the
        classes under ``core/`` and ``coproc/``."""
        for signature_of in (
            Machine,
            run_policy,
            CoProcessor,
            ScalarCore,
            CompiledCase.machine,
            InstructionPool,
        ):
            parameters = inspect.signature(signature_of).parameters
            assert not {"reference", "indexed"} & set(parameters), signature_of
        moved = {
            Machine: ("_run_reference", "reference"),
            CoProcessor: ("_dispatch_core", "reference"),
            ScalarCore: (
                "_execute",
                "_exec_vop",
                "_exec_vload",
                "_read_scalar",
                "_vec_operand",
                "reference",
            ),
            InstructionPool: ("dispatchable", "_indexed"),
        }
        machine = Machine(config, policy("cts"), self._jobs())
        instances = {
            Machine: machine,
            CoProcessor: machine.coproc,
            ScalarCore: machine.cores[0],
            InstructionPool: machine.coproc.pools[0],
        }
        for hot_class, names in moved.items():
            for name in names:
                assert not hasattr(instances[hot_class], name), (hot_class, name)
        assert not hasattr(inspect.getmodule(ScalarCore), "_apply_vop")

    def test_wheel_runs_sleep_components(self, config):
        """A memory-bound co-run actually exercises sleep (the engine's
        point); the profile counts the slept cycles."""
        machine = Machine(config, policy("occamy"), self._jobs())
        machine.run()
        assert sum(machine.profile.component_asleep) > 0


WINDOW = 8


class TestLegitimateLongSkip:
    """Satellite fix: a skip/stall wider than DEADLOCK_WINDOW is not a hang.

    With an (artificially tiny) 8-cycle window, every memory round-trip of
    an ordinary workload out-waits the window.  The detector must see the
    pending completion (``next_event_cycle``) and keep going — under the
    reference loop and under the fast engine's wheel alike.
    """

    @BOTH_ENGINES
    def test_run_completes(self, config, monkeypatch, machine_class):
        monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
        jobs = [compiled_job(make_axpy(length=256)), None]
        machine = machine_class(config, PRIVATE, jobs)
        result = machine.run()  # must not raise
        assert result.total_cycles > WINDOW

    def test_tiny_window_changes_nothing(self, config, monkeypatch):
        """Shrinking the window must not perturb a healthy run at all."""
        jobs = lambda: [compiled_job(make_axpy(length=256)), None]  # noqa: E731
        wide_result = Machine(config, PRIVATE, jobs()).run()
        monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
        narrow_result = Machine(config, PRIVATE, jobs()).run()
        assert run_fingerprint(narrow_result) == run_fingerprint(wide_result)
