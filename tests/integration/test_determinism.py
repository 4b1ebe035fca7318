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
really ran in the fast engine; the reference machine has no profile and
none of the fast machine's sleep bookkeeping ever moves on it.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis import experiments
from repro.analysis.parallel import SimTask, run_tasks
from repro.common.config import experiment_config
from repro.core.policies import ALL_POLICIES, EXTENDED_POLICIES
from repro.validation.reference_engine import SeedCore
from repro.workloads.pairs import all_pairs, jobs_for_pair

from tests.conftest import compiled_job, engines_agree, make_axpy, run_fingerprint

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


def test_ncore_sweep_matches_serial():
    """The N-core driver, which used to drop ``jobs``, fans out to the same
    results."""
    serial = _ncore_fingerprints(jobs=1)
    experiments._sweep_cache.clear()
    assert _ncore_fingerprints(jobs=2) == serial


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
    """``PAIRS[0]`` under ``policy`` on both engines, simulated once and
    found bit-identical: ``(fast machine, reference machine)``."""
    return engines_agree(
        experiment_config(), policy, lambda: jobs_for_pair(PAIRS[0], SCALE)
    )


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_fast_forward_is_bit_exact(policy):
    """Idle cycles are skipped by the fast engine and stepped by the
    reference: identical runs under every sharing mode.

    EXTENDED_POLICIES covers all three sharing modes (spatial, temporal
    and CTS's coarse-temporal), so each mode's next-event hooks are
    exercised.
    """
    fast, slow = _both_engines(policy)
    assert fast.profile.fastforward_cycles > 0
    assert slow.profile is None and slow._ff_skipped == 0


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_loop_replay_is_bit_exact(policy, config):
    """A solo steady loop — the longest one diffed against the oracle —
    matches the cycle-by-cycle reference under every sharing mode."""

    engines_agree(config, policy, lambda: [compiled_job(make_axpy(6144, 4), 0), None])


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_pre_decode_matches_seed_interpreter(policy, config, monkeypatch):
    """The fast engine never enters the seed interpreter, the reference
    engine retires every instruction through it, and they agree."""
    calls = []
    seed_execute = SeedCore._execute

    def counted(self, instr, cycle):
        calls.append(self)
        return seed_execute(self, instr, cycle)

    monkeypatch.setattr(SeedCore, "_execute", counted)
    fast, slow = engines_agree(config, policy, lambda: jobs_for_pair(PAIRS[0], SCALE))
    assert not any(isinstance(core, SeedCore) for core in fast.cores)
    assert len(calls) >= sum(core.retired for core in slow.cores) > 0
    assert {id(core) for core in calls} == {id(core) for core in slow.cores}


def test_all_fast_paths_off_matches_all_on():
    """The reference engine really is fully pessimised — nothing skipped,
    slept through or batched — and the default agrees with it."""
    _fast, slow = _both_engines(EXTENDED_POLICIES[3])  # occamy
    assert slow.profile is None
    assert slow._ff_skipped == 0 and not any(slow._comp_asleep)
    assert len(slow._wheel) == 0 and all(slow._awake)
    assert not hasattr(slow.coproc._batch, "batched_calls")


@pytest.mark.parametrize("policy", EXTENDED_POLICIES, ids=lambda p: p.key)
def test_event_wheel_is_bit_exact(policy):
    """Tickless event wheel vs every-cycle tick: identical under every
    sharing mode.

    The wheel changes *everything* about the run loop — per-component
    sleep/wake, bulk metric settling, ready-set dispatch indexing — so
    this is the broadest single safety net for the tickless engine.
    """
    tickless, reference = _both_engines(policy)
    # Every mode sleeps — FTS too, all components together or not at all.
    assert sum(tickless.profile.component_asleep) > 0
    assert not any(reference._comp_asleep)


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
