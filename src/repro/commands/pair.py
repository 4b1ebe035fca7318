"""``repro pair``: co-run one Table 3 pair under every policy."""

import argparse

from repro.analysis.experiments import pair_outcome
from repro.analysis.reporting import format_table
from repro.cli import POLICY_KEYS
from repro.workloads.pairs import CoRunPair


def run(args: argparse.Namespace) -> int:
    pair = CoRunPair(args.suite, args.mem, args.comp)
    outcome = pair_outcome(pair, scale=args.scale, jobs=args.jobs)
    rows = []
    for key in POLICY_KEYS:
        rows.append(
            [
                key,
                f"{outcome.speedup(key, 0):.2f}x",
                f"{outcome.speedup(key, 1):.2f}x",
                f"{100 * outcome.utilization(key):.1f}%",
                f"{100 * outcome.rename_stall_fraction(key, 1):.0f}%",
            ]
        )
    print(f"pair {pair}:")
    print(format_table(["arch", "sp0", "sp1", "util", "rename(c1)"], rows))
    return 0
