"""Differential validation: cross-engine fuzzing and runtime invariant audits.

The classes under ``repro.core`` and ``repro.coproc`` are the fast engine;
the seed engine it is promised bit-identical to lives here, with the code
that diffs the two.  This package keeps that promise honest as the
codebase grows:

:mod:`repro.validation.fingerprint`
    A named-section fingerprint of everything a :class:`RunResult`
    exposes, and a differ that reports exactly which section diverged.
:mod:`repro.validation.reference_engine`
    The oracle — cycle-by-cycle run loop, ``isinstance`` interpreter,
    per-uop window-scan dispatch, list-scan pool — in one module; its
    docstring lists what it still shares with the fast engine.  Nothing
    outside this package imports it.
:mod:`repro.validation.difftest`
    The cross-engine differential fuzzer: random programs run through
    both engines under every sharing mode and diffed
    (``python -m repro diff-fuzz``).
:mod:`repro.validation.shrink`
    An automatic shrinker reducing a diverging case to a minimal repro
    and emitting it as a ready-to-commit regression test.
:mod:`repro.validation.invariants`
    Opt-in runtime invariant audits (``REPRO_AUDIT`` / ``--audit``) wired
    into the machine, lane table, renamer, LSUs and bandwidth model.
"""
