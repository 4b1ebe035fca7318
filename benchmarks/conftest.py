"""Benchmark harness configuration.

Every claim — the paper's numbers and ours beyond them — is a row of
:mod:`repro.analysis.fidelity`, judged by ``repro fidelity``.  What lives
here is measured outside that table: the eager-only ablation
(a compile option, which a task does not carry) and the two speedup gates
of the result cache and the fleet.  Run pytest with ``-s`` to see each
printout; simulations run once per benchmark (``pedantic`` with one
round), and each module states the scale it runs at.
"""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def _fresh_result_cache(tmp_path_factory):
    """Point the persistent result cache at a per-session directory.

    Benchmarks time *simulations*; a warm ``~/.cache/repro`` would quietly
    turn them into deserialisation benchmarks.  A fresh directory keeps
    every session cold (and the user's real cache untouched) while still
    letting figures share results within the session.
    """
    cache_dir = tmp_path_factory.mktemp("bench-result-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)

