#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py``: ``compare.py A.json B.json``.

``A`` is the parent, ``B`` the change (for an A/A check, two ledgers of one
commit).  Per workload and end-to-end metric it prints both medians with
their quartiles and a verdict by the choosing-metrics rule:

* ``REGRESSION`` — B's median is worse than A's by more than the metric's
  bound;
* ``unresolved`` — the run-to-run spread (quartile distance over median, of
  either side) is wider than the bound, so the medians cannot tell; unless
  every run of one side beats every run of the other, which decides it;
* ``ok`` — within the bound.

Exact values — ``fig2_sp1_err``, every count, every digest — are compared
for equality: ``same`` or ``DIFFERS``.  Exit status 1 on any
``REGRESSION`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence, Tuple

import metrics as registry


def _spread(stats: Dict[str, object]) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def _all_better(mine: Sequence[float], theirs: Sequence[float], better: str) -> bool:
    if better == "lower":
        return max(mine) < min(theirs)
    return min(mine) > max(theirs)


def timed_verdict(a: Dict[str, object], b: Dict[str, object], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, worse_by)``: ``worse_by`` is B's median relative to A's,
    positive when B is worse."""
    change = (b["median"] - a["median"]) / abs(a["median"])
    worse_by = change if better == "lower" else -change
    if max(_spread(a), _spread(b)) > bound:
        if _all_better(b["values"], a["values"], better):
            return "ok (every run better)", worse_by
        if _all_better(a["values"], b["values"], better) and worse_by > bound:
            return "REGRESSION", worse_by
        return "unresolved", worse_by
    return ("REGRESSION" if worse_by > bound else "ok"), worse_by


def exact_verdict(a: object, b: object) -> str:
    return "same" if a == b else "DIFFERS"


def compare(a: Dict[str, object], b: Dict[str, object]) -> Tuple[List[str], int]:
    lines: List[str] = []
    bad = 0
    metrics = registry.end_to_end_by_name()
    layers = registry.layer_by_name()
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"## {name}: missing from B")
            bad += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        lines.append(f"## {name}")
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"].get(metric)
            spec = metrics[metric]
            if sb is None:
                verdict, worse_by = "DIFFERS (missing from B)", 0.0
            elif spec.bound == 0.0:
                verdict, worse_by = exact_verdict(sa["median"], sb["median"]), 0.0
            else:
                verdict, worse_by = timed_verdict(sa, sb, spec.better, spec.bound)
            bad += verdict.startswith(("REGRESSION", "DIFFERS"))
            shown = sb or sa
            lines.append(
                f"{metric:22s} A {sa['median']:12.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}] n={sa['n']}"
                f"   B {shown['median']:12.5g} [{shown['q1']:.5g}, {shown['q3']:.5g}] n={shown['n']}"
                f"   worse by {100 * worse_by:+6.1f}% (bound {100 * spec.bound:.0f}%)  {verdict}"
            )
        differing = []
        for layer, sa in wa["per_layer"].items():
            sb = wb["per_layer"].get(layer)
            if not layers[layer].exact or sb is None:
                continue
            if len(set(sa["values"])) > 1 or len(set(sb["values"])) > 1:
                differing.append(f"{layer} (did not repeat within one ledger)")
            elif sa["median"] != sb["median"]:
                differing.append(layer)
        for key, entry in wa["exact"].items():
            other = wb["exact"].get(key)
            if other is None or other["value"] != entry["value"]:
                differing.append(key)
            if not entry["repeats"] or (other is not None and not other["repeats"]):
                differing.append(f"{key} (did not repeat within one ledger)")
        bad += len(differing)
        lines.append(
            "exact counts and digests: "
            + ("same" if not differing else "DIFFERS: " + ", ".join(sorted(differing)))
        )
    return lines, bad


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    ledgers = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            ledgers.append(json.load(handle))
    a, b = ledgers
    for key in ("seed", "seconds", "runs", "smoke"):
        if a.get(key) != b.get(key):
            print(f"note: {key} differs ({a.get(key)} vs {b.get(key)}); "
                  "compare like with like")
    lines, bad = compare(a, b)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
