"""``repro fidelity``: every headline number of the paper beside ours, then
every claim of ours beyond the paper, as Markdown — the block EXPERIMENTS.md
carries.  Exits 1 when a row is outside
its tolerance with no stated reason, or states one it no longer needs."""

import argparse

from repro.analysis.fidelity import ACCEPTED, fidelity_rows, render


def run(args: argparse.Namespace) -> int:
    results = fidelity_rows(scale=args.scale, jobs=args.jobs)
    print(render(results, args.scale))
    return 0 if all(judged.status in ACCEPTED for judged in results) else 1
