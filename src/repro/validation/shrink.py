"""Automatic shrinking of diverging fuzz cases.

Given a :class:`~repro.validation.difftest.CaseSpec` and the policy it
diverged under, :func:`shrink_case` greedily applies
structure-aware reductions — drop a co-running core, drop a phase, halve
repeats and trip counts, thin the instruction mix, reset compiler options
— keeping each reduction only if the reduced case *still* diverges.  The
result is a minimal repro, and :func:`emit_regression_test` renders it as
a ready-to-commit pytest module so every fuzzer-found bug lands in
``tests/`` with its minimized case.
"""

from __future__ import annotations

import os
import re
from dataclasses import replace
from typing import Iterator, Optional, Tuple

from repro.common.errors import ReproError
from repro.validation.difftest import CaseSpec, PhaseSpec, check_case

#: Reduction-attempt budget; each attempt is one full reference-vs-fast
#: comparison, so this bounds shrinking to roughly a minute.
DEFAULT_MAX_EVALS = 120


def _phase_reductions(phase: PhaseSpec) -> Iterator[PhaseSpec]:
    """Valid single-step reductions of one phase, biggest first."""
    if phase.repeats > 1:
        yield replace(phase, repeats=phase.repeats // 2)
    if phase.trip > 32:
        yield replace(phase, trip=phase.trip // 2)
    for candidate in (
        replace(phase, comp=phase.comp - 1),
        replace(phase, extra_loads=phase.extra_loads - 1),
        replace(phase, reads=phase.reads - 1),
        replace(phase, stores=phase.stores - 1),
    ):
        try:
            candidate.counts()
        except ReproError:
            continue
        yield candidate


def _candidates(spec: CaseSpec) -> Iterator[CaseSpec]:
    """Every one-step reduction of ``spec``, biggest first."""
    cores = spec.cores
    active = [index for index, phases in enumerate(cores) if phases]
    if len(active) > 1:
        for index in active:
            dropped = tuple(
                None if core == index else phases
                for core, phases in enumerate(cores)
            )
            yield replace(spec, cores=dropped)
    for index, phases in enumerate(cores):
        if not phases:
            continue
        if len(phases) > 1:
            for drop in range(len(phases)):
                reduced = phases[:drop] + phases[drop + 1 :]
                yield replace(
                    spec,
                    cores=tuple(
                        reduced if core == index else other
                        for core, other in enumerate(cores)
                    ),
                )
        for slot, phase in enumerate(phases):
            for smaller in _phase_reductions(phase):
                patched = phases[:slot] + (smaller,) + phases[slot + 1 :]
                yield replace(
                    spec,
                    cores=tuple(
                        patched if core == index else other
                        for core, other in enumerate(cores)
                    ),
                )
    if spec.unroll > 1:
        yield replace(spec, unroll=1)
    if spec.forced:
        yield replace(spec, forced=())


def shrink_case(
    spec: CaseSpec,
    policy_key: str,
    config=None,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> CaseSpec:
    """Greedily minimize ``spec`` while it still diverges.

    First-improvement descent: take the first reduction that still
    reproduces the divergence and restart from it.  Candidates that fail
    to compile are skipped; one on which an engine crashes still diverges
    (:func:`check_case` reports it in section ``error``), so a fast-only
    crash shrinks like any other mismatch.
    """

    evals = 0

    def still_diverges(candidate: CaseSpec) -> bool:
        nonlocal evals
        evals += 1
        try:
            return bool(
                check_case(candidate, policies=(policy_key,), config=config)
            )
        except ReproError:  # the reduced spec no longer compiles
            return False

    current = spec
    improved = True
    while improved and evals < max_evals:
        improved = False
        for candidate in _candidates(current):
            if evals >= max_evals:
                break
            if still_diverges(candidate):
                current = candidate
                improved = True
                break
    return current


# --- regression-test emission ----------------------------------------------

_TEST_TEMPLATE = '''"""Fuzzer-minimized regression: diff-fuzz seed {seed}.

The fast engine diverged from the reference engine under the
``{policy}`` policy on this case.  Auto-generated by
``repro.validation.shrink``; the spec below is the minimal repro.
"""

from repro.validation.difftest import CaseSpec, PhaseSpec, check_case


def test_{name}():
    spec = {spec!r}
    divergences = check_case(spec, policies=("{policy}",))
    assert not divergences, "\\n".join(str(d) for d in divergences)
'''


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def emit_regression_test(spec: CaseSpec, policy_key: str) -> Tuple[str, str]:
    """Render a pytest module pinning this (minimized) divergence.

    Returns ``(filename, source)``; the spec's dataclass repr is eval-able
    against the imports in the template, so the emitted file round-trips.
    """
    name = f"seed{spec.seed}_{_slug(policy_key)}"
    source = _TEST_TEMPLATE.format(
        seed=spec.seed, policy=policy_key, name=name, spec=spec
    )
    return f"test_fuzz_{name}.py", source


def write_regression_test(spec: CaseSpec, policy_key: str, directory: str) -> str:
    """Write the emitted regression test under ``directory``; returns path."""
    filename, source = emit_regression_test(spec, policy_key)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return path
