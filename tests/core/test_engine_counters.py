"""The fast engine's own books: its profile counters pinned to exact values,
and its per-uop index state released by the end of a run.

The sleep/wake path and the dispatch counters run only in the fast engine
(the oracle has neither), so ``diff-fuzz`` cannot hold them; these tests
do.  Any engine change that moves a number here must say why.
"""

import pytest

from repro.analysis.parallel import SimTask
from repro.common.config import experiment_config
from repro.core.machine import Machine
from repro.core.policies import POLICIES_BY_KEY
from repro.workloads.pairs import CoRunPair


def _run(policy_key):
    task = SimTask(
        policy_key=policy_key,
        scale=0.05,
        config=experiment_config(),
        pair=CoRunPair("spec", 8, 17),
    )
    machine = Machine(task.config, POLICIES_BY_KEY[policy_key], task.build_jobs())
    machine.run(max_cycles=task.max_cycles)
    return machine


@pytest.fixture(scope="module")
def occamy_machine():
    return _run("occamy")


def test_profile_counters_are_pinned(occamy_machine):
    profile = occamy_machine.profile
    assert profile.total_cycles == 31_339
    assert profile.interpreted_cycles == 14_190
    assert profile.fastforward_cycles == 17_149
    assert profile.component_busy == [7046, 2175]
    assert profile.component_idle == [5997, 258]
    assert profile.component_asleep == [18295, 721]
    assert profile.batched_dispatch_calls == 15_464
    assert profile.batched_uops == 10_578
    assert profile.plan_cuts == 0


@pytest.mark.parametrize("policy_key", ["occamy", "fts", "vls", "private", "cts"])
def test_ready_index_is_empty_after_a_run(policy_key, occamy_machine):
    """Every uop the pools ever indexed is forgotten once it commits, so a
    finished run holds none of them (the index used to keep one
    ``_pending_deps`` and one ``_wake_at`` key per uop issued)."""
    machine = occamy_machine if policy_key == "occamy" else _run(policy_key)
    for pool in machine.coproc.pools:
        assert pool.committed > 0
        assert not pool._entries
        assert not pool._by_seq
        assert not pool._dep_waiters
        assert not pool._pending_deps
        assert not pool._wake_at
