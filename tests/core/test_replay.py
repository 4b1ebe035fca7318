"""The steady-state loop-replay engine (busy-cycle fast path, level 2)."""

import random

import pytest

from repro.common.config import experiment_config
from repro.core.machine import Machine, run_policy
from repro.core.policies import OCCAMY
from repro.core.replay import (
    FUTILE_PROBE_LIMIT,
    MAX_PROBE_STRIDE,
    ReplayController,
    ReplayProfile,
    _Template,
)
from repro.validation.difftest import CompiledCase, generate_case
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
        # Pinned at the commit before the probe gate: deferring a coarse
        # key's first sighting must not cost this loop any replay.
        assert profile.replayed_cycles >= 5658

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
        assert "probes gated" in profile.report()

    def test_profile_merge_accumulates(self):
        total = ReplayProfile()
        part = ReplayProfile(
            total_cycles=10,
            replayed_cycles=4,
            replayed_periods=2,
            probes_gated=3,
            probes_full=1,
        )
        total.merge(part)
        total.merge(part)
        assert (total.probes_gated, total.probes_full) == (6, 2)
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
        assert fast.profile.replayed_cycles >= 576  # pre-gate pin, as above


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


def _sampled_states(num_cores, seed, policy_key, start, stop, every=1):
    """Step a randomised co-run by hand, yielding its controller at every
    ``every``-th cycle boundary in ``[start, stop)``."""
    case = CompiledCase(generate_case(seed, num_cores), experiment_config(num_cores))
    machine = case.machine(policy_key)
    controller = ReplayController(machine)
    for cycle in range(stop):
        if machine.finished:
            break
        if cycle >= start and cycle % every == 0:
            yield cycle, machine, controller
        machine.step(cycle)


class TestProbeGate:
    """The coarse key is a projection of the boundary signature."""

    # Long fuzz seeds, sampled every cycle over a window past warm-up —
    # exact states only recur once a case has settled into its loops.
    @pytest.mark.parametrize(
        "num_cores,seed,policy_key,start,stop",
        [
            (2, 7, "occamy", 5000, 6800),
            (2, 15, "fts", 3000, 5500),
            (2, 7, "cts", 5000, 6800),
            (4, 15, "occamy", 3500, 5500),
            (4, 15, "fts", 14500, 18500),
        ],
    )
    def test_equal_signatures_have_equal_coarse_keys(
        self, num_cores, seed, policy_key, start, stop
    ):
        coarse_of = {}
        recurrences = 0
        for cycle, machine, controller in _sampled_states(
            num_cores, seed, policy_key, start, stop
        ):
            sig = controller._signature(cycle, machine.coproc._seq)
            coarse = controller._coarse_key()
            if sig in coarse_of:
                recurrences += 1
            assert coarse_of.setdefault(sig, coarse) == coarse
        # Vacuity guard: the sampled run did revisit exact states.
        assert recurrences > 50

    def test_perturbations_change_the_coarse_key(self):
        rng = random.Random(0)
        checked = 0
        for cycle, machine, controller in _sampled_states(
            4, 7, "occamy", start=0, stop=600, every=40
        ):
            coproc = machine.coproc
            before = controller._coarse_key()
            core = rng.choice([c for c in machine.cores if c is not None])
            core.pc += 1
            assert controller._coarse_key() != before
            core.pc -= 1
            slot = rng.randrange(len(coproc.renamer._free))
            coproc.renamer._free[slot] -= 1
            assert controller._coarse_key() != before
            coproc.renamer._free[slot] += 1
            busy = [pool for pool in coproc.pools if not pool.empty]
            if busy:
                pool = rng.choice(busy)
                entry = pool._entries.pop()
                assert controller._coarse_key() != before
                pool._entries.append(entry)
                checked += 1
            assert controller._coarse_key() == before
        assert checked > 0

    def test_first_sighting_is_gated_second_builds_the_signature(self, config):
        machine = Machine(config, OCCAMY, _steady_jobs())
        controller = ReplayController(machine)
        assert controller._probe(0) is False
        assert (controller.profile.probes_gated, controller.profile.probes_full) == (1, 0)
        assert controller._probe(5) is False
        assert (controller.profile.probes_gated, controller.profile.probes_full) == (1, 1)
        # Both were futile, and the exact map took the deferred first
        # sighting as the signature's previous occurrence.
        assert controller._futile_probes == 2
        assert list(controller._sig_seen.values()) == [(5, 5)]
        # The deferred sighting is spent: a different signature under the
        # same coarse key starts from scratch, as an ungated probe would.
        machine._done[1] = not machine._done[1]  # in the signature only
        assert controller._probe(9) is False
        assert sorted(controller._sig_seen.values()) == [(5, 5), (9, 0)]

    def test_gated_probes_count_towards_the_stride(self, config):
        machine = Machine(config, OCCAMY, _steady_jobs())
        controller = ReplayController(machine)
        for cycle in range(FUTILE_PROBE_LIMIT):
            machine.cores[0].pc = cycle  # a state never seen before
            controller._probe_at = cycle
            assert not controller.needs_all_awake(cycle)
            controller.on_cycle(cycle, 10**6, 0)
            assert not controller.engaged
        assert controller.profile.probes_gated == FUTILE_PROBE_LIMIT
        assert controller.profile.probes_full == 0
        assert controller._probe_stride == 2

    def test_saved_template_is_never_gated(self, config):
        machine = Machine(config, OCCAMY, _steady_jobs())
        machine.run()
        controller = ReplayController(machine)
        coarse = hash(controller._coarse_key())
        assert controller._gated(coarse)
        template = _Template(
            period=4, timed=[], stall_totals={}, overhead_totals={},
            sig=(), coarse=coarse, progress_offset=0,
        )
        controller._saved.append(template)
        # The seen-map is empty (as after its reset), yet the probe must
        # reach the signature comparison.
        assert not controller._gated(coarse)
        controller._probe_at = 9
        assert controller.needs_all_awake(9)
        controller._probe(9)
        assert controller.profile.probes_full == 1

    def test_futile_probe_wakes_nobody_on_16_cores(self, monkeypatch):
        case = CompiledCase(generate_case(0, 16), experiment_config(16))
        settles = []
        original = Machine._settle

        def counting(self, component, cycle):
            settles.append(component)
            original(self, component, cycle)

        monkeypatch.setattr(Machine, "_settle", counting)
        machine = case.machine("occamy")
        fast = machine.run()
        profile = machine.profile
        probes = profile.probes_gated + profile.probes_full
        assert profile.probes_gated > 0
        # Every probe used to settle all 16 components first.
        assert len(settles) < probes * 16
        slow = case.machine("occamy", reference=True).run()
        assert run_fingerprint(fast) == run_fingerprint(slow)
