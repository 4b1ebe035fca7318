"""Shared fixtures and kernel builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro import (
    Assign,
    BinOp,
    Call,
    Const,
    Job,
    Kernel,
    Load,
    Loop,
    Param,
    Reduce,
    build_image,
    compile_kernel,
    experiment_config,
)
from repro.compiler.pipeline import CompileOptions
from repro.core.machine import Machine
from repro.validation.fingerprint import run_fingerprint as validation_run_fingerprint
from repro.validation.reference_engine import ReferenceMachine, ScanPool

#: Run a test on the fast engine (``ff-wheel``) and on the oracle
#: (``slow-ref``).
BOTH_ENGINES = pytest.mark.parametrize(
    "machine_class", [Machine, ReferenceMachine], ids=["ff-wheel", "slow-ref"]
)


#: The seven engine kill switches deleted with the engine matrix (spelled
#: from parts so the "nothing mentions them" grep stays empty).  Tests set
#: them to prove nothing reads them any more.
REMOVED_KILL_SWITCHES = tuple(
    "REPRO_NO_" + axis
    for axis in (
        "FAST_FORWARD",
        "PRE_DECODE",
        "LOOP_REPLAY",
        "EVENT_WHEEL",
        "HIER_WHEEL",
        "BATCH_EXEC",
        "LANE_SHARDS",
    )
)


def run_fresh_python(code: str, *argv: str, timeout: float = 300.0) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's
    ``repro`` (and inherits the environment, so the redirected cache)."""
    src = Path(repro.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
        timeout=timeout,
    )


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Keep the suite hermetic: never touch the user's ~/.cache/repro."""
    cache_dir = tmp_path_factory.mktemp("result-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture
def config():
    """The scaled two-core evaluation configuration."""
    return experiment_config()


@pytest.fixture
def config4():
    """The scaled four-core evaluation configuration."""
    return experiment_config(num_cores=4)


def make_axpy(length: int = 512, repeats: int = 1) -> Kernel:
    """y = a*x + y — the simplest realistic kernel."""
    return Kernel(
        name="axpy",
        array_length=length,
        loops=(
            Loop(
                "axpy",
                trip_count=length,
                repeats=repeats,
                body=(
                    Assign(
                        "y",
                        BinOp("add", BinOp("mul", Param("a"), Load("x")), Load("y")),
                    ),
                ),
            ),
        ),
        params={"a": 2.0},
    )


def make_stencil(length: int = 512) -> Kernel:
    """out[i] = (w[i-1] + w[i] + w[i+1]) / 3 — exercises shifts/data reuse."""
    return Kernel(
        name="stencil3",
        array_length=length,
        loops=(
            Loop(
                "stencil3",
                trip_count=length - 2,
                body=(
                    Assign(
                        "out",
                        BinOp(
                            "mul",
                            BinOp(
                                "add",
                                BinOp("add", Load("w", -1), Load("w")),
                                Load("w", 1),
                            ),
                            Const(1.0 / 3.0),
                        ),
                    ),
                ),
            ),
        ),
    )


def make_reduction(length: int = 512, repeats: int = 1) -> Kernel:
    """acc += x*y — a dot product (loop-carried reduction)."""
    return Kernel(
        name="dot",
        array_length=length,
        loops=(
            Loop(
                "dot",
                trip_count=length,
                repeats=repeats,
                body=(Reduce("add", "acc", BinOp("mul", Load("x"), Load("y"))),),
            ),
        ),
    )


def make_two_phase(length: int = 512) -> Kernel:
    """A memory-ish phase followed by a compute-ish phase."""
    mem = Loop(
        "mem",
        trip_count=length,
        body=(
            Assign("c", BinOp("add", Load("a"), Load("b"))),
            Assign("d", BinOp("max", Load("e"), Load("f"))),
        ),
    )
    expr = BinOp("mul", Load("x"), Load("y"))
    for i in range(8):
        expr = BinOp("add", BinOp("mul", expr, Const(1.0 + 0.001 * i)), Load("x"))
    comp = Loop("comp", trip_count=length, repeats=4, body=(Assign("z", expr),))
    return Kernel(name="two_phase", array_length=length, loops=(mem, comp))


def compiled_job(kernel: Kernel, core_id: int = 0, **options) -> Job:
    """Compile a kernel and wrap it with a fresh image."""
    program = compile_kernel(kernel, CompileOptions(**options))
    return Job(program=program, image=build_image(kernel, core_id=core_id))


def run_fingerprint(result) -> tuple:
    """Everything observable about a :class:`RunResult`, hashable.

    The determinism suite compares these across execution strategies
    (serial vs process pool, fast-forward on vs off, cold vs cached).
    Delegates to :mod:`repro.validation.fingerprint` — the same sections
    the cross-engine differential fuzzer diffs — so the test layer and the
    fuzzer can never drift apart on what "bit-identical" covers.
    """
    return validation_run_fingerprint(result)


def engines_agree(config, policy, make_jobs):
    """Run ``make_jobs()`` afresh on the fast engine and on the oracle,
    assert the two runs fingerprint identically, and return both machines
    (fast first) for whatever else the caller wants to know about them."""
    machines = [
        machine_class(config, policy, make_jobs())
        for machine_class in (Machine, ReferenceMachine)
    ]
    fast, slow = (run_fingerprint(machine.run()) for machine in machines)
    assert fast == slow
    return machines


def scan_view(pool) -> ScanPool:
    """The oracle's list-scan pool over ``pool``'s live window: what a
    from-scratch walk of the same entries answers."""
    view = ScanPool(pool.core_id, pool.capacity)
    view._entries = pool._entries
    return view
