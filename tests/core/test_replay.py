"""The steady-state loop-replay engine (busy-cycle fast path, level 2)."""

import pytest

from repro.core.machine import Machine, run_policy
from repro.core.policies import OCCAMY
from repro.core.replay import (
    FUTILE_PROBE_LIMIT,
    MAX_PROBE_STRIDE,
    ReplayController,
    ReplayProfile,
)
from tests.conftest import compiled_job, make_axpy, run_fingerprint

#: A solo steady loop the engine reliably locks onto: the length divides
#: the 48-element per-iteration chunk (12 lanes * 4 fp32), so array
#: passes contain no narrower tail load to break the timing period.
STEADY_LENGTH = 6144
STEADY_REPEATS = 8


def _steady_jobs():
    return [compiled_job(make_axpy(STEADY_LENGTH, STEADY_REPEATS), 0), None]


class TestEngagement:
    def test_steady_loop_replays(self, config):
        machine = Machine(config, OCCAMY, _steady_jobs())
        machine.run()
        profile = machine.profile
        assert profile.templates_built > 0
        assert profile.replayed_periods > 0
        assert profile.replayed_cycles > 0

    def test_profile_attribution_sums_to_total(self, config):
        machine = Machine(config, OCCAMY, _steady_jobs())
        machine.run()
        profile = machine.profile
        assert (
            profile.interpreted_cycles
            + profile.fastforward_cycles
            + profile.replayed_cycles
            == profile.total_cycles
        )
        assert "loop-replayed" in profile.report()

    def test_profile_merge_accumulates(self):
        total = ReplayProfile()
        part = ReplayProfile(
            total_cycles=10, replayed_cycles=4, replayed_periods=2
        )
        total.merge(part)
        total.merge(part)
        assert total.total_cycles == 20
        assert total.replayed_cycles == 8
        assert total.replayed_periods == 4


class TestBitExactness:
    def test_replay_matches_slow_path(self, config):
        reference = Machine(config, OCCAMY, _steady_jobs(), reference=True)
        slow = reference.run()
        assert reference.profile.replayed_cycles == 0
        fast = run_policy(config, OCCAMY, _steady_jobs())
        assert run_fingerprint(fast) == run_fingerprint(slow)

    def test_aperiodic_tail_still_exact(self, config):
        # 4000 is not divisible by the 48-element iteration chunk: every
        # array pass ends in a narrower tail load the template cannot
        # script.  Replay must abort at the tail and fall back bit-exactly.
        def jobs():
            return [compiled_job(make_axpy(4000, 4), 0), None]

        slow = run_policy(config, OCCAMY, jobs(), reference=True)
        fast = Machine(config, OCCAMY, jobs())
        assert run_fingerprint(fast.run()) == run_fingerprint(slow)
        assert fast.profile.replay_aborts > 0


class TestFutilityBackoff:
    """Workloads whose state never recurs must stop paying for probes."""

    def test_stride_doubles_at_limit_and_caps(self, config):
        controller = ReplayController(Machine(config, OCCAMY, _steady_jobs()))
        for _ in range(FUTILE_PROBE_LIMIT):
            controller._note_futile(1)
        assert controller._probe_stride == 2
        for _ in range(64):
            controller._note_futile(FUTILE_PROBE_LIMIT)
        assert controller._probe_stride == MAX_PROBE_STRIDE

    def test_stride_gates_backedge_probes(self, config):
        controller = ReplayController(Machine(config, OCCAMY, _steady_jobs()))
        controller._probe_stride = 4
        armed = 0
        for cycle in range(16):
            controller.on_backedge(0, 10, 2, cycle)
            if controller._probe_at >= 0:
                armed += 1
                controller._probe_at = -1
        assert armed == 4
