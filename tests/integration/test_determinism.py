"""Determinism of the execution strategies (the tentpole's safety net).

The parallel sweep engine, the persistent result cache and the fast
engine (pre-decoded scalar dispatch, idle fast-forward, the tickless
event wheel) are all pure optimisations: every one of
them must produce results bit-identical to the plain serial,
cycle-by-cycle reference engine.  This suite pins that down by
fingerprinting complete :class:`~repro.core.machine.RunResult` objects —
cycle counts, every metric counter, phase records, lane timelines, cache
statistics and final memory bytes — across strategies.  Each engine test
also proves from ``Machine.profile`` that the mechanism it is named after
really ran in the fast engine and really did not in the reference.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis import experiments
from repro.analysis.parallel import SimTask, run_tasks
from repro.common.config import experiment_config
from repro.core.machine import Machine, run_policy
from repro.core.policies import ALL_POLICIES, EXTENDED_POLICIES
from repro.core.scalar_core import ScalarCore
from repro.workloads.pairs import all_pairs, jobs_for_pair

from tests.conftest import compiled_job, make_axpy, run_fingerprint

SCALE = 0.1
PAIRS = all_pairs()[:2]


@pytest.fixture(autouse=True)
def _no_persistent_cache(monkeypatch):
    """Force every strategy to really simulate (no disk-cache shortcuts)."""
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    experiments._sweep_cache.clear()
    yield
    experiments._sweep_cache.clear()


def _sweep_fingerprints(jobs):
    experiments._sweep_cache.clear()
    outcomes = experiments.sweep_pairs(PAIRS, scale=SCALE, jobs=jobs)
    return [
        (str(outcome.pair), key, run_fingerprint(outcome.results[key]))
        for outcome in outcomes
        for key in sorted(outcome.results)
    ]


def test_parallel_sweep_matches_serial():
    """2- and 4-worker process pools reproduce the serial sweep exactly."""
    serial = _sweep_fingerprints(jobs=1)
    assert _sweep_fingerprints(jobs=2) == serial
    assert _sweep_fingerprints(jobs=4) == serial


def _ncore_fingerprints(jobs):
    outcome = experiments.ncore_outcome(4, scale=0.05, jobs=jobs)
    return [(key, run_fingerprint(result)) for key, result in outcome.results.items()]


def _alloc_fingerprints(jobs):
    return [
        (outcome.alloc_key, outcome.pair_labels(), [run_fingerprint(r) for r in outcome.results])
        for outcome in experiments.alloc_sweep((8,), scale=0.05, jobs=jobs)
    ]


@pytest.mark.parametrize("fingerprints", [_ncore_fingerprints, _alloc_fingerprints])
def test_ncore_and_alloc_sweeps_match_serial(fingerprints):
    """The drivers that used to drop ``jobs`` fan out to the same results."""
    serial = fingerprints(jobs=1)
    experiments._sweep_cache.clear()
    assert fingerprints(jobs=2) == serial


def test_run_tasks_order_is_positional(config):
    """Results come back in task order, not completion order."""
    tasks = [
        SimTask(policy_key=policy.key, scale=SCALE, config=config, pair=pair)
        for pair in PAIRS
        for policy in ALL_POLICIES
    ]
    results = run_tasks(tasks, jobs=2, cache=None)
    for task, result in zip(tasks, results):
        assert result.policy_key == task.policy_key


@functools.lru_cache(maxsize=None)
def _both_engines(policy):
    """``PAIRS[0]`` under ``policy`` on both engines, simulated once:
    ``(fast fingerprint, fast profile, reference fingerprint, reference
    profile)``."""
    out = []
    for reference in (False, True):
        jobs = jobs_for_pair(PAIRS[0], SCALE)
        machine = Machine(experiment_config(), policy, jobs, reference=reference)
        out += [run_fingerprint(machine.run()), machine.profile]
    return tuple(out)


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_fast_forward_is_bit_exact(policy):
    """Idle cycles are skipped by the fast engine and stepped by the
    reference: identical runs under every sharing mode.

    EXTENDED_POLICIES covers all three sharing modes (spatial, temporal
    and CTS's coarse-temporal), so each mode's next-event hooks are
    exercised.
    """
    fast, fast_profile, slow, slow_profile = _both_engines(policy)
    assert fast == slow
    assert fast_profile.fastforward_cycles > 0
    assert slow_profile.fastforward_cycles == 0
    assert slow_profile.interpreted_cycles == slow_profile.total_cycles


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_loop_replay_is_bit_exact(policy, config):
    """A solo steady loop — the longest one diffed against the oracle —
    matches the cycle-by-cycle reference under every sharing mode."""

    def jobs():
        return [compiled_job(make_axpy(6144, 4), 0), None]

    fast = run_policy(config, policy, jobs())
    slow = run_policy(config, policy, jobs(), reference=True)
    assert run_fingerprint(fast) == run_fingerprint(slow)


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_pre_decode_matches_seed_interpreter(policy, config, monkeypatch):
    """The fast engine never enters the seed interpreter, the reference
    engine retires every instruction through it, and they agree."""
    calls = []
    seed_execute = ScalarCore._execute

    def counted(self, instr, cycle):
        calls.append(self.reference)
        return seed_execute(self, instr, cycle)

    monkeypatch.setattr(ScalarCore, "_execute", counted)
    pair = PAIRS[0]
    decoded = run_policy(config, policy, jobs_for_pair(pair, SCALE))
    assert not calls
    seed = run_policy(config, policy, jobs_for_pair(pair, SCALE), reference=True)
    assert calls and all(calls)
    assert run_fingerprint(decoded) == run_fingerprint(seed)


def test_all_fast_paths_off_matches_all_on():
    """The reference engine really is fully pessimised — nothing skipped,
    slept through or batched — and the default agrees with it."""
    optimised, _, baseline, profile = _both_engines(EXTENDED_POLICIES[3])  # occamy
    assert optimised == baseline
    assert profile.interpreted_cycles == profile.total_cycles
    assert not any(profile.component_asleep)
    assert profile.batched_dispatch_calls == profile.scalar_dispatch_calls == 0


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_event_wheel_is_bit_exact(policy):
    """Tickless event wheel vs every-cycle tick: identical under every
    sharing mode.

    The wheel changes *everything* about the run loop — per-component
    sleep/wake, bulk metric settling, ready-set dispatch indexing — so
    this is the broadest single safety net for the tickless engine.
    """
    tickless, fast_profile, reference, slow_profile = _both_engines(policy)
    assert tickless == reference
    # Every mode sleeps — FTS too, all components together or not at all.
    assert sum(fast_profile.component_asleep) > 0
    assert not any(slow_profile.component_asleep)


def test_sweep_is_order_independent():
    """Sweeping [A, B] and [B, A] yields the same per-pair results."""
    forward = _sweep_fingerprints(jobs=1)
    experiments._sweep_cache.clear()
    outcomes = experiments.sweep_pairs(list(reversed(PAIRS)), scale=SCALE)
    backward = [
        (str(outcome.pair), key, run_fingerprint(outcome.results[key]))
        for outcome in reversed(outcomes)
        for key in sorted(outcome.results)
    ]
    assert backward == forward
