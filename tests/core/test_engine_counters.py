"""The fast engine's own books: its profile counters pinned to exact values,
and its per-uop index state released by the end of a run.

The sleep/wake path and the dispatch counters run only in the fast engine
(the oracle has neither), so ``diff-fuzz`` cannot hold them; these tests
do.  Any engine change that moves a number here must say why.
"""

import pytest

from repro.analysis.parallel import SimTask
from repro.common.config import experiment_config
from repro.coproc.dynamic import InstructionPool
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
    assert profile.interpreted_cycles == 13_653
    assert profile.fastforward_cycles == 17_686
    assert profile.component_busy == [7046, 2175]
    assert profile.component_idle == [5375, 236]
    assert profile.component_asleep == [18917, 743]
    assert profile.batched_dispatch_calls == 14_820
    assert profile.batched_uops == 10_578
    assert profile.plan_cuts == 0


@pytest.mark.parametrize("policy_key", ["occamy", "fts", "vls", "private", "cts"])
def test_ready_index_is_empty_after_a_run(policy_key, monkeypatch):
    """Every uop the pools ever indexed is forgotten once it commits: a
    finished run's wake heap, ready list and waiting deque are empty, and
    no committed uop still names a waiter (readiness lives on the uop, so
    a leak would keep the whole dependence graph alive)."""
    committed = []
    commit_ready = InstructionPool.commit_ready

    def recording(self, cycle, width):
        entries = commit_ready(self, cycle, width)
        committed.extend(entries)
        return entries

    monkeypatch.setattr(InstructionPool, "commit_ready", recording)
    machine = _run(policy_key)
    for pool in machine.coproc.pools:
        assert pool.committed > 0
        assert not pool._entries
        assert not pool._wake_heap
        assert not pool._ready
        assert not pool._waiting
    assert len(committed) == sum(pool.committed for pool in machine.coproc.pools)
    assert not any(entry.waiters for entry in committed)
