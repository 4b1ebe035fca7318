"""The oracle checks the fast engine's kernels; it does not share them.

``diff-fuzz`` can only see a slip in code that one engine runs and the
other does not.  Each case below seeds one slip into a fast-engine kernel
and requires the sweep to diverge: the oracle must be running its own
commit walk, its own renamer headroom check and its own per-uop metric
bookings.  The clean leg keeps the sweep honest in the other direction.
"""

import pytest

from repro.coproc.dynamic import InstructionPool
from repro.coproc.metrics import Metrics
from repro.coproc.renamer import Renamer
from repro.validation.difftest import fuzz_seeds

SEEDS = range(12)
POLICIES = ("occamy", "fts", "cts")


def _narrow_commit(monkeypatch):
    commit_ready = InstructionPool.commit_ready
    monkeypatch.setattr(
        InstructionPool,
        "commit_ready",
        lambda self, cycle, width: commit_ready(self, cycle, width - 7),
    )


def _uncapped_headroom(monkeypatch):
    monkeypatch.setattr(
        Renamer, "available", lambda self, core: self._free[self._slot(core)]
    )


def _drop_one_compute(monkeypatch):
    book = Metrics.on_compute_dispatch_batch

    def slip(self, core, vls, total_flops, cycle):
        book(self, core, vls[:-1] if len(vls) > 1 else vls, total_flops, cycle)

    monkeypatch.setattr(Metrics, "on_compute_dispatch_batch", slip)


@pytest.mark.parametrize(
    "seed_slip",
    [_narrow_commit, _uncapped_headroom, _drop_one_compute],
    ids=["commit-width", "renamer-hold-cap", "compute-batch-booking"],
)
def test_fast_engine_slip_is_caught(monkeypatch, seed_slip):
    seed_slip(monkeypatch)
    report = fuzz_seeds(SEEDS, policies=POLICIES)
    assert report.divergences, f"{seed_slip.__name__} went unseen by diff-fuzz"


def test_no_slip_no_divergence():
    report = fuzz_seeds(SEEDS, policies=POLICIES)
    assert report.clean, [str(d) for d in report.divergences]
    assert report.runs == 2 * len(SEEDS) * len(POLICIES)
