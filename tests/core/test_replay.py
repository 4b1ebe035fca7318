"""Long steady loops (what loop replay used to cover): fast == reference,
and the run profile's cycle attribution."""

from repro.core.machine import Machine
from repro.core.policies import OCCAMY
from repro.core.result import RunProfile
from tests.conftest import compiled_job, engines_agree, make_axpy

#: A solo steady loop: the length divides the 48-element per-iteration
#: chunk (12 lanes * 4 fp32), so array passes contain no narrower tail
#: load to break the timing period.
STEADY_LENGTH = 6144
STEADY_REPEATS = 8


def _steady_jobs():
    return [compiled_job(make_axpy(STEADY_LENGTH, STEADY_REPEATS), 0), None]


class TestEngagement:
    def test_profile_attribution_sums_to_total(self, config):
        machine = Machine(config, OCCAMY, _steady_jobs())
        machine.run()
        profile = machine.profile
        assert (
            profile.interpreted_cycles + profile.fastforward_cycles
            == profile.total_cycles
        )
        assert profile.interpreted_cycles > 0 and profile.fastforward_cycles > 0
        assert "fast-forwarded" in profile.report()

    def test_profile_merge_accumulates(self):
        total = RunProfile()
        part = RunProfile(
            total_cycles=10,
            interpreted_cycles=6,
            fastforward_cycles=4,
            batched_uops=3,
            component_asleep=[1, 2],
        )
        total.merge(part)
        total.merge(part)
        assert total.total_cycles == 20
        assert (total.interpreted_cycles, total.fastforward_cycles) == (12, 8)
        assert total.batched_uops == 6
        assert total.component_asleep == [2, 4]


class TestBitExactness:
    def test_replay_matches_slow_path(self, config):
        engines_agree(config, OCCAMY, _steady_jobs)

    def test_aperiodic_tail_still_exact(self, config):
        # 4000 is not divisible by the 48-element iteration chunk: every
        # array pass ends in a narrower tail load that breaks the period.
        engines_agree(config, OCCAMY, lambda: [compiled_job(make_axpy(4000, 4), 0), None])
