"""``repro report``: run a slice of the evaluation, write a Markdown report."""

import argparse

from repro.analysis.report import write_report


def run(args: argparse.Namespace) -> int:
    write_report(args.output, scale=args.scale, pairs_limit=args.pairs, jobs=args.jobs)
    print(f"report written to {args.output}")
    return 0
