"""``repro trace``: run a pair under Occamy, export a JSON trace + ASCII Gantt."""

import argparse

from repro.analysis.experiments import pair_outcome
from repro.analysis.trace import export_trace, phase_gantt
from repro.workloads.pairs import CoRunPair


def run(args: argparse.Namespace) -> int:
    pair = CoRunPair(args.suite, args.mem, args.comp)
    outcome = pair_outcome(pair, scale=args.scale, jobs=args.jobs)
    result = outcome.results["occamy"]
    export_trace(result, args.output)
    print(phase_gantt(result))
    print(f"\ntrace written to {args.output}")
    return 0
