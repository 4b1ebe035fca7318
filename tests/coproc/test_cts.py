"""Coarse-grained temporal sharing (CTS) arbitration."""

import pytest

from repro import (
    Job,
    build_image,
    compile_kernel,
    experiment_config,
    run_policy,
)
from repro.compiler.reference import check_answers
from repro.coproc.coprocessor import SharingMode
from repro.coproc.metrics import StallReason
from repro.core.machine import Machine
from repro.core.policies import CTS, policy
from repro.validation.reference_engine import ReferenceCoProcessor
from tests.conftest import (
    compiled_job,
    engines_agree,
    make_axpy,
    make_reduction,
    make_two_phase,
)


class TestCtsPolicy:
    def test_registered(self):
        assert policy("cts") is CTS
        assert CTS.mode is SharingMode.COARSE_TEMPORAL

    def test_solo_workload_full_width(self, config):
        result = run_policy(config, CTS, [compiled_job(make_axpy()), None])
        lanes = result.metrics.lane_timeline[0]
        assert max(v for _, v in lanes.points) == config.vector.total_lanes

    def test_corun_correctness(self, config):
        kernels = (make_axpy(512), make_two_phase(512))
        jobs = [compiled_job(kernels[0], 0), compiled_job(kernels[1], 1)]
        result = run_policy(config, CTS, jobs)
        check_answers(kernels, result.images, "axpy+two-phase under cts")

    def test_ownership_rotates(self, config):
        jobs = [
            compiled_job(make_two_phase(512), 0),
            compiled_job(make_two_phase(512), 1),
        ]
        machine = Machine(config, CTS, jobs)
        machine.run()
        assert machine.coproc.cts_switches >= 2

    def test_no_rename_stalls(self, config):
        jobs = [
            compiled_job(make_two_phase(512), 0),
            compiled_job(make_two_phase(512), 1),
        ]
        result = run_policy(config, CTS, jobs)
        for core in (0, 1):
            assert result.metrics.stall_fraction(core, StallReason.RENAME) < 0.02

    def test_non_owner_waits(self, config):
        jobs = [
            compiled_job(make_two_phase(512), 0),
            compiled_job(make_two_phase(512), 1),
        ]
        result = run_policy(config, CTS, jobs)
        # Exclusive ownership shows up as issue-budget stalls on the
        # waiting core.
        waits = sum(
            result.metrics.stalls[core][StallReason.ISSUE_BUDGET]
            for core in (0, 1)
        )
        assert waits > 100

    def test_owner_sequence_matches_reference(self, config, monkeypatch):
        """One arbitration body serves both engines: at every cycle the
        fast engine arbitrates (it skips the cycles everyone sleeps
        through) it names the owner, and has counted the switches, the
        cycle-by-cycle reference has there."""
        from repro.coproc.coprocessor import CoProcessor

        original = CoProcessor._cts_arbitrate
        seen = {False: {}, True: {}}

        def spy(self, cycle):
            granted = original(self, cycle)
            seen[isinstance(self, ReferenceCoProcessor)][cycle] = (
                granted,
                self._cts_owner,
                self.cts_switches,
            )
            return granted

        monkeypatch.setattr(CoProcessor, "_cts_arbitrate", spy)
        engines_agree(
            config,
            CTS,
            lambda: [
                compiled_job(make_axpy(2048), 0),
                compiled_job(make_reduction(256, 8), 1),
            ],
        )
        fast, slow = seen[False], seen[True]
        assert 0 < len(fast) < len(slow), "the fast engine never slept"
        assert all(slow[cycle] == state for cycle, state in fast.items())
        assert fast[max(fast)][2] == slow[max(slow)][2] >= 2

class TestCtsArbitrateEdges:
    """Direct edge-case drives of :meth:`CoProcessor._cts_arbitrate`."""

    @staticmethod
    def _machine(penalty: int, quantum: int) -> Machine:
        import dataclasses

        config = experiment_config()
        vector = dataclasses.replace(
            config.vector, cts_switch_penalty=penalty, cts_quantum=quantum
        )
        config = dataclasses.replace(config, vector=vector)
        jobs = [compiled_job(make_axpy(64), 0), compiled_job(make_axpy(64), 1)]
        return Machine(config, CTS, jobs)

    @staticmethod
    def _fill(coproc, core: int) -> None:
        from repro.coproc.dynamic import DynamicInstruction, EntryKind

        coproc.pools[core].push(
            DynamicInstruction(
                seq=coproc.next_seq(),
                core=core,
                kind=EntryKind.COMPUTE,
                instr=None,
                vl_lanes=4,
                transmit_cycle=0,
            )
        )

    def test_penalty_longer_than_quantum_cannot_ping_pong(self):
        machine = self._machine(penalty=100, quantum=10)
        coproc = machine.coproc
        self._fill(coproc, 0)
        self._fill(coproc, 1)
        # Quantum expires at cycle 10 with core 1 waiting: hand over.
        assert coproc._cts_arbitrate(10) is None  # switch + drain starts
        assert coproc._cts_owner == 1
        assert coproc.cts_switches == 1
        # The new quantum starts only after the drain, so ownership cannot
        # bounce back mid-penalty even though quantum < penalty.
        for cycle in range(11, 110):
            assert coproc._cts_arbitrate(cycle) is None
            assert coproc._cts_owner == 1
        assert coproc._cts_arbitrate(110) == 1  # drain over, quantum running
        assert coproc._cts_until == 10 + 100 + 10
        assert coproc.cts_switches == 1

    def test_owner_draining_with_no_waiters_keeps_ownership(self):
        machine = self._machine(penalty=10, quantum=50)
        coproc = machine.coproc
        # Core 0 owns but has nothing in flight and nobody else is waiting:
        # no switch, no penalty — even long past quantum expiry.
        for cycle in (0, 49, 50, 51, 500):
            assert coproc._cts_arbitrate(cycle) == 0
        assert coproc.cts_switches == 0
        # The moment a waiter appears, the idle owner yields immediately.
        self._fill(coproc, 1)
        assert coproc._cts_arbitrate(501) is None  # drain begins
        assert coproc._cts_owner == 1
        assert coproc.cts_switches == 1

    def test_handover_at_exact_quantum_boundary(self):
        machine = self._machine(penalty=0, quantum=64)
        coproc = machine.coproc
        self._fill(coproc, 0)
        self._fill(coproc, 1)
        # One cycle before expiry the busy owner keeps the engine.
        assert coproc._cts_arbitrate(63) == 0
        assert coproc.cts_switches == 0
        # At exactly cts_until the quantum has expired: hand over, and with
        # a zero penalty the new owner dispatches the same cycle.
        assert coproc._cts_arbitrate(64) == 1
        assert coproc.cts_switches == 1
        assert coproc._cts_until == 64 + 64
        assert coproc._cts_blocked_until == 64


class TestCtsPenaltyConfig:
    def test_switch_penalty_configurable(self):
        import dataclasses

        config = experiment_config()
        vector = dataclasses.replace(config.vector, cts_switch_penalty=0, cts_quantum=64)
        fast_config = dataclasses.replace(config, vector=vector)
        jobs = [
            compiled_job(make_two_phase(512), 0),
            compiled_job(make_two_phase(512), 1),
        ]
        fast = run_policy(fast_config, CTS, jobs)
        jobs = [
            compiled_job(make_two_phase(512), 0),
            compiled_job(make_two_phase(512), 1),
        ]
        vector = dataclasses.replace(config.vector, cts_switch_penalty=200, cts_quantum=64)
        slow_config = dataclasses.replace(config, vector=vector)
        slow = run_policy(slow_config, CTS, jobs)
        assert slow.total_cycles > fast.total_cycles
