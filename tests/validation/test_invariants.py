"""Runtime invariant auditor: clean runs pass, corrupted state is caught."""

import pytest

from repro.common.errors import InvariantViolation
from repro.core.machine import Machine, run_policy
from repro.core.policies import policy
from repro.validation.fingerprint import run_fingerprint
from repro.validation.invariants import InvariantAuditor, audit_enabled
from tests.conftest import compiled_job, make_axpy, make_two_phase


def _machine(config, key="occamy", audit=True):
    jobs = [
        compiled_job(make_two_phase(length=256), core_id=0),
        compiled_job(make_axpy(length=256), core_id=1),
    ]
    return Machine(config, policy(key), jobs, audit=audit)


def _run_some(machine, cycles=400):
    for cycle in range(cycles):
        machine.step(cycle)
        if machine.finished:
            break
    return machine


class TestEnablement:
    def test_off_by_default(self, config, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert not audit_enabled()
        assert _machine(config, audit=None).auditor is None

    def test_env_knob(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert audit_enabled()
        machine = _machine(config, audit=None)
        assert isinstance(machine.auditor, InvariantAuditor)

    def test_explicit_arg_overrides_env(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert _machine(config, audit=False).auditor is None

    def test_auditor_installed_on_components(self, config):
        machine = _machine(config)
        coproc = machine.coproc
        assert coproc.renamer.auditor is machine.auditor
        assert all(lsu.auditor is machine.auditor for lsu in coproc.lsus)
        assert coproc.memory.dram_bw.auditor is machine.auditor


class TestCleanRuns:
    @pytest.mark.parametrize("key", ["private", "fts", "vls", "occamy", "cts"])
    def test_every_policy_passes_the_audit(self, config, key):
        jobs = [
            compiled_job(make_two_phase(length=256), core_id=0),
            compiled_job(make_axpy(length=256), core_id=1),
        ]
        result = run_policy(config, policy(key), jobs, audit=True)
        assert result.total_cycles > 0

    def test_audit_actually_checked_something(self, config):
        machine = _machine(config)
        _run_some(machine)
        assert machine.auditor.checks > 0

    def test_audited_run_is_bit_identical(self, config):
        jobs = lambda: [  # noqa: E731 - fresh images per run
            compiled_job(make_two_phase(length=256), core_id=0),
            compiled_job(make_axpy(length=256), core_id=1),
        ]
        plain = run_policy(config, policy("occamy"), jobs(), audit=False)
        audited = run_policy(config, policy("occamy"), jobs(), audit=True)
        assert run_fingerprint(plain) == run_fingerprint(audited)

    def test_audit_survives_fast_paths(self, config):
        jobs = [
            compiled_job(make_two_phase(length=256), core_id=0),
            compiled_job(make_axpy(length=256), core_id=1),
        ]
        result = run_policy(config, policy("occamy"), jobs, audit=True)
        assert result.total_cycles > 0


class TestCorruptionCaught:
    def test_lane_leak(self, config):
        machine = _run_some(_machine(config))
        machine.coproc.resource_table._free_lanes -= 1  # <AL> loses a lane
        with pytest.raises(InvariantViolation, match="conservation"):
            machine.auditor.check_machine(10_000)

    def test_physical_register_leak(self, config):
        machine = _run_some(_machine(config))
        machine.coproc.renamer._held[0] += 1  # phantom hold: leaked register
        with pytest.raises(InvariantViolation, match="leak|held|holds"):
            machine.auditor.check_machine(10_000)

    def test_renamer_freelist_overflow(self, config):
        machine = _run_some(_machine(config))
        renamer = machine.coproc.renamer
        renamer._free[0] = renamer._capacity[0] + 5  # double release
        with pytest.raises(InvariantViolation):
            machine.auditor.check_machine(10_000)

    def test_rob_retire_order(self, config):
        machine = _machine(config)
        for cycle in range(3_000):
            machine.step(cycle)
            pool = machine.coproc.pools[0]
            if len(pool._entries) >= 2:
                break
        else:
            pytest.skip("pool never filled")
        pool._entries[0], pool._entries[-1] = pool._entries[-1], pool._entries[0]
        with pytest.raises(InvariantViolation, match="order"):
            machine.auditor.check_machine(10_000)

    def test_bandwidth_queue_corruption(self, config):
        machine = _run_some(_machine(config))
        machine.coproc.memory.dram_bw._next_free = -3.0
        with pytest.raises(InvariantViolation, match="negative"):
            machine.auditor.check_machine(10_000)

    def test_second_stall_or_overhead_in_one_cycle(self, config):
        # One capture slot per core rests on one record per core-cycle.
        from repro.coproc.metrics import StallReason

        machine = _run_some(_machine(config))
        metrics = machine.metrics
        metrics.on_stall(0, StallReason.EMPTY, 10_000)
        metrics.on_overhead_cycle(0, "monitor")
        metrics.on_stall(1, StallReason.EMPTY, 10_000)  # another core: fine
        with pytest.raises(InvariantViolation, match="two stall events"):
            metrics.on_stall(0, StallReason.DEPENDENCY, 10_000)
        with pytest.raises(InvariantViolation, match="two overhead events"):
            metrics.on_overhead_cycle(0, "reconfig")
        machine.auditor.check_machine(10_000)  # end of cycle: a new one
        metrics.on_stall(0, StallReason.EMPTY, 10_001)

    def test_partial_sleep_under_temporal_sharing(self, config):
        machine = _run_some(_machine(config, key="fts"))
        machine._live_count = 2
        machine._asleep_count = 1  # one of two coupled components asleep
        with pytest.raises(InvariantViolation, match="all or none"):
            machine.auditor.check_machine(10_000)

    def test_bandwidth_serve_hook_rejects_time_travel(self, config):
        # The per-serve hook is a self-consistency check on the channel's
        # own arithmetic; feed it an impossible schedule directly.
        machine = _machine(config)
        regulator = machine.coproc.memory.dram_bw
        with pytest.raises(InvariantViolation, match="before its arrival"):
            machine.auditor.on_bandwidth_serve(regulator, 64, 10.0, 5.0, 6.0)
