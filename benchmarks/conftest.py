"""Benchmark harness configuration.

Every claim — the paper's numbers and ours beyond them — is a row of
:mod:`repro.analysis.fidelity`, judged by ``test_paper_fidelity.py``.  What
else lives here is measured outside that table: the compiler-knob study
(its variants are compile options, which a task does not carry) and the
two speedup gates of the result cache and the fleet.  Run pytest with
``-s`` to see each printout; simulations run once per benchmark
(``pedantic`` with one round), and each module states the scale it runs at.
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


#: Shared schema tag for every BENCH_*.json perf-trajectory artifact.
BENCH_SCHEMA = "repro-bench/1"

#: Directory BENCH_*.json files land in (default: current directory).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def record_bench(name, speedup, slow_seconds, fast_seconds, scale, extra=None):
    """Write one ``BENCH_<name>.json`` perf-trajectory record.

    Every CI-gated speedup benchmark emits one of these in a shared
    schema so the perf trajectory across PRs is a set of comparable
    artifacts rather than scrollback.  ``scale`` is the workload scale the
    benchmark ran at.  Files go to ``$REPRO_BENCH_DIR`` (created if needed)
    or the working directory.
    """
    import json
    import pathlib
    import platform
    import time

    record = {
        "schema": BENCH_SCHEMA,
        "bench": name,
        "speedup": round(float(speedup), 4),
        "slow_seconds": round(float(slow_seconds), 4),
        "fast_seconds": round(float(fast_seconds), 4),
        "bench_scale": scale,
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        record["extra"] = {
            key: value
            for key, value in extra.items()
            if isinstance(value, (int, float, str, bool)) or value is None
        }
    out_dir = pathlib.Path(os.environ.get(BENCH_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"perf-trajectory record: {path}")
    return path
