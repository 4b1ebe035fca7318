"""Every term of the tickless wake is load-bearing.

A sleeping component wakes at the earliest of five terms
(``Machine._component_wake``): its pool head's completion, the wake heap's
top (a waiting entry's operands arrive), the next store-queue retire, the
next vector→scalar write-back, and — under CTS — the next quantum or
drain boundary.  Each mutant below drops one term and must make the
differential sweep diverge from the oracle, or make the fast engine raise;
the whole wake must stay clean.  Random cases never make the store-retire
or the write-back term the binding one, so each has a hand-built case.
The mutants are cut from a copy of the wake that is first pinned to the
real one, call by call.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.common.config import experiment_config
from repro.common.errors import SimulationError
from repro.coproc.dynamic import EntryState
from repro.coproc.sharing import SharingMode
from repro.core.machine import Job, Machine
from repro.core.policies import policy
from repro.isa.assembler import assemble
from repro.memory.image import MemoryImage
from repro.validation.difftest import fuzz_seeds
from repro.validation.fingerprint import run_fingerprint
from repro.validation.reference_engine import ReferenceMachine

SEEDS = range(12)
POLICIES = ("occamy", "fts", "cts")
#: Ten times the longest of these cases: a mutant that sleeps through a
#: CTS hand-over fails in seconds, not at the default three million cycles.
MAX_CYCLES = 20_000


def wake_without(dropped=None):
    """``Machine._component_wake`` with the term named ``dropped`` left out."""

    def wake(self, component, cycle):
        coproc = self.coproc
        pool = coproc.pools[component]
        terms = []
        if dropped != "head" and pool._entries:
            head = pool._entries[0]
            if head.state is not EntryState.WAITING:
                terms.append(head.complete_cycle)
        heap = pool._wake_heap
        if dropped != "ready-wake" and heap and heap[0][0] > cycle:
            terms.append(heap[0][0])
        if dropped != "store-retire":
            terms.append(coproc.lsus[component].next_store_retire(cycle))
        if dropped != "scalar-writeback":
            terms.append(self.cores[component].next_event_cycle(cycle))
        if dropped != "cts-boundaries" and coproc.mode is SharingMode.COARSE_TEMPORAL:
            terms += [
                boundary
                for boundary in (coproc._cts_blocked_until, coproc._cts_until)
                if boundary > cycle
            ]
        terms = [term for term in terms if term is not None]
        return int(math.ceil(min(terms))) if terms else None

    return wake


@pytest.mark.parametrize("policy_key", POLICIES)
def test_the_copy_is_the_wake(policy_key, monkeypatch):
    """Every wake the scheduler asks for, the copy answers the same."""
    real = Machine._component_wake
    copy = wake_without()
    calls = 0

    def both(self, component, cycle):
        nonlocal calls
        calls += 1
        answer = real(self, component, cycle)
        assert copy(self, component, cycle) == answer, (component, cycle)
        return answer

    monkeypatch.setattr(Machine, "_component_wake", both)
    assert fuzz_seeds(range(3), policies=(policy_key,), num_cores=4).clean
    assert calls > 100


def test_the_whole_wake_is_clean(monkeypatch):
    monkeypatch.setattr(Machine, "_component_wake", wake_without())
    report = fuzz_seeds(SEEDS, policies=POLICIES, max_cycles=MAX_CYCLES)
    assert report.clean, [str(d) for d in report.divergences]


@pytest.mark.parametrize("term", ["head", "ready-wake", "cts-boundaries"])
def test_dropping_a_term_diverges(term, monkeypatch):
    monkeypatch.setattr(Machine, "_component_wake", wake_without(term))
    report = fuzz_seeds(SEEDS, policies=POLICIES, max_cycles=MAX_CYCLES)
    assert report.divergences, f"dropping the {term} term went unseen"


# --- hand-built cases for the terms random cases never bind ---------------

SETVL = """
setvl:
    msr <VL>, #8
    mrs X3, <status>
    b.ne X3, #1, setvl
"""

#: Wait until every older vector instruction has committed.
BARRIER = """
    msr <VL>, #8
    mrs X3, <status>
"""


def _diverges(config, source, arrays, wake) -> bool:
    """Run one single-core program on the oracle and on the fast engine
    (with ``wake``); True if the fast run differs or raises."""

    def jobs():
        image = MemoryImage.for_core(0)
        for name, length in arrays.items():
            image.add_array(name, np.zeros(length, dtype=np.float32))
        return [Job(program=assemble(source), image=image)] + [None] * (
            config.num_cores - 1
        )

    reference = run_fingerprint(ReferenceMachine(config, policy("occamy"), jobs()).run())
    machine = Machine(config, policy("occamy"), jobs())
    machine._component_wake = wake.__get__(machine)
    try:
        return run_fingerprint(machine.run()) != reference
    except SimulationError:  # a late wake can deadlock or run out of cycles
        return True


def test_store_retire_term_binds_behind_a_dram_head():
    """A DRAM load heads the pool while 40 stores to L2-resident lines
    stream through a 16-entry store queue: the queue fills and drains many
    times before the head completes."""
    stores, evict = 40, 384  # vectors of 32 floats; ``evict`` flushes the Vec Cache
    source = SETVL + f"""
        mov Xi, #0
        mov Xn, #{stores * 32}
    warm:
        ld1w z5, [b, Xi]
        add Xi, Xi, #32
        b.lt Xi, Xn, warm
        mov Xi, #0
        mov Xc, #{evict * 32}
    flush:
        ld1w z6, [c, Xi]
        add Xi, Xi, #32
        b.lt Xi, Xc, flush
        fdup z1, #1.0
    """ + BARRIER + """
        mov Xz, #0
        ld1w z7, [a, Xz]
        mov Xi, #0
    stream:
        st1w z1, [b, Xi]
        add Xi, Xi, #32
        b.lt Xi, Xn, stream
        halt
    """
    base = experiment_config()
    config = dataclasses.replace(
        base, core=dataclasses.replace(base.core, store_queue_entries=16)
    )
    arrays = {"a": 64, "b": stores * 32 + 32, "c": evict * 32 + 32}
    assert not _diverges(config, source, arrays, wake_without())
    assert _diverges(config, source, arrays, wake_without("store-retire"))


def test_scalar_writeback_term_binds_behind_a_dram_head():
    """A branch reads a ``VHReduce`` result while an older DRAM load heads
    the pool; the load it then transmits finishes a DRAM trip later if the
    branch resumes only when the head completes."""
    source = SETVL + """
        fdup z1, #2.0
    """ + BARRIER + """
        mov Xz, #0
        ld1w z7, [a, Xz]
        faddv Xs, z1
        b.lt Xs, #0, done
        ld1w z8, [d, Xz]
    done:
        halt
    """
    config = experiment_config()
    arrays = {"a": 64, "d": 64}
    assert not _diverges(config, source, arrays, wake_without())
    assert _diverges(config, source, arrays, wake_without("scalar-writeback"))
