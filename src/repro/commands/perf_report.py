"""``repro perf-report``: the tracked performance report.

The machine configuration plus the ECM-vs-simulator cycle-prediction error
table (see ``docs/perf-model.md``).  ``--workloads`` / ``--policies`` narrow
the sweep, ``--out`` writes the markdown.
"""

import argparse
from pathlib import Path

from repro.analysis.perf_report import generate_perf_report
from repro.analysis.validation import ECM_VALIDATION_POLICIES
from repro.common.errors import ConfigurationError


def run(args: argparse.Namespace) -> int:
    workload_ids = None
    if args.workloads:
        try:
            workload_ids = [int(token) for token in args.workloads.split(",")]
        except ValueError:
            raise ConfigurationError(
                f"--workloads: {args.workloads!r} is not a comma-separated "
                "list of workload ids"
            ) from None
    policies = ECM_VALIDATION_POLICIES
    if args.policies:
        from repro.core.policies import policy

        policies = tuple(args.policies.split(","))
        for key in policies:
            try:
                policy(key)
            except KeyError as exc:
                raise ConfigurationError(f"--policies: {exc.args[0]}") from None
    text = generate_perf_report(
        out=Path(args.out) if args.out else None,
        scale=args.scale,
        workload_ids=workload_ids,
        policies=policies,
    )
    if args.out:
        print(f"perf report written to {args.out}")
    else:
        print(text, end="")
    return 0
