"""The tickless event wheel: wake index, engine selection, deadlock windows.

Unit-level coverage of the wake-index contract of
:class:`repro.core.machine.EventWheel` plus the run-loop
properties around it: ``reference=True`` is the only engine selector (the
deleted ``REPRO_NO_*`` kill switches are inert), and the satellite fix that
a *legitimate* long skip — a memory-bound stretch far wider than
``DEADLOCK_WINDOW`` — is never misreported as a hang (the detector requires
the machine to have no future event at all, under both engines).
"""

from __future__ import annotations

import pytest

import repro.core.machine as machine_mod
from repro.core.machine import EventWheel, Machine
from repro.core.policies import PRIVATE, policy

from tests.conftest import (
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
        assert switched.reference is False
        assert run_fingerprint(switched.run()) == run_fingerprint(plain_result)
        assert switched.profile == plain.profile
        assert switched.profile.fastforward_cycles > 0
        assert switched.profile.batched_dispatch_calls > 0

    def test_explicit_argument_wins(self, config):
        """``reference=True`` is the one selector, handed down to every
        layer at construction."""
        for reference in (False, True):
            machine = Machine(
                config, policy("cts"), self._jobs(), reference=reference
            )
            assert machine.coproc.reference is reference
            assert all(core.reference is reference for core in machine.cores)
            assert (machine.coproc._batch is None) is reference
            assert all(
                pool._indexed is not reference for pool in machine.coproc.pools
            )

    def test_wheel_runs_sleep_components(self, config):
        """A memory-bound co-run actually exercises sleep (the engine's
        point); the sleep series records the spans."""
        machine = Machine(config, policy("occamy"), self._jobs())
        machine.run()
        slept = sum(
            sum(series._sums) for series in machine.metrics.sleep_series
        )
        assert slept > 0


WINDOW = 8


class TestLegitimateLongSkip:
    """Satellite fix: a skip/stall wider than DEADLOCK_WINDOW is not a hang.

    With an (artificially tiny) 8-cycle window, every memory round-trip of
    an ordinary workload out-waits the window.  The detector must see the
    pending completion (``next_event_cycle``) and keep going — under the
    reference loop and under the fast engine's wheel alike.
    """

    @pytest.mark.parametrize("reference", [False, True], ids=["ff-wheel", "slow-ref"])
    def test_run_completes(self, config, monkeypatch, reference):
        monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
        jobs = [compiled_job(make_axpy(length=256)), None]
        machine = Machine(config, PRIVATE, jobs, reference=reference)
        result = machine.run()  # must not raise
        assert result.total_cycles > WINDOW

    def test_tiny_window_changes_nothing(self, config, monkeypatch):
        """Shrinking the window must not perturb a healthy run at all."""
        jobs = lambda: [compiled_job(make_axpy(length=256)), None]  # noqa: E731
        wide_result = Machine(config, PRIVATE, jobs()).run()
        monkeypatch.setattr(machine_mod, "DEADLOCK_WINDOW", WINDOW)
        narrow_result = Machine(config, PRIVATE, jobs()).run()
        assert run_fingerprint(narrow_result) == run_fingerprint(wide_result)
