"""Differential validation: cross-engine fuzzing and runtime invariant audits.

The simulator has one reference engine (the seed interpreter, cycle by
cycle) and one fast engine promised bit-identical to it.  This package
keeps that promise honest as the codebase grows:

:mod:`repro.validation.fingerprint`
    A named-section fingerprint of everything a :class:`RunResult`
    exposes, and a differ that reports exactly which section diverged.
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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.validation.fingerprint import (
        diff_fingerprints,
        fingerprint_sections,
        run_fingerprint,
    )
    from repro.validation.invariants import InvariantAuditor, audit_enabled

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.validation.fingerprint": (
            "diff_fingerprints", "fingerprint_sections", "run_fingerprint"
        ),
        "repro.validation.invariants": ("InvariantAuditor", "audit_enabled"),
    },
)
