"""``repro diff-fuzz``: cross-engine differential fuzzing.

Random co-run programs executed by the fast engine and by the reference
engine (the seed interpreter, cycle by cycle) under every sharing mode, full
run fingerprints diffed.  ``--cores N`` widens the generated co-runs to
N-core machines.  Prints how much work each fast-engine mechanism did over
the sweep and fails when one saw none.  Diverging cases are shrunk to
minimal repros and emitted as regression tests.
"""

import argparse
import json
import sys

from repro.common.config import validate_core_count
from repro.core.policies import POLICIES_BY_KEY
from repro.validation.difftest import DEFAULT_POLICIES, fuzz_seeds
from repro.validation.shrink import shrink_case, write_regression_test


def run(args: argparse.Namespace) -> int:
    if args.policies:
        policies = tuple(args.policies.split(","))
        unknown = [key for key in policies if key not in POLICIES_BY_KEY]
        if unknown:
            print(f"unknown policies: {', '.join(unknown)}", file=sys.stderr)
            return 2
    else:
        policies = DEFAULT_POLICIES
    cores = validate_core_count(args.cores)
    seeds = list(range(args.start, args.start + args.seeds))
    print(
        f"diff-fuzz: {len(seeds)} case(s), {cores} cores, "
        f"policies {', '.join(policies)}, fast vs reference"
    )
    report = fuzz_seeds(
        seeds,
        policies=policies,
        audit=True if args.audit else None,
        progress=print,
        num_cores=cores,
    )
    if report.clean:
        print(f"OK: {report.runs} runs, fast engine bit-identical to reference")
    else:
        print(f"FAIL: {len(report.divergences)} divergence(s)")
        for divergence in report.divergences:
            print(f"  {divergence}")
            for line in divergence.detail:
                print(f"    {line}")
    print("fast-engine traffic over the sweep:")
    for name, count in report.traffic().items():
        print(f"  {name:<24}{count:>12}")
    starved = report.starved
    if starved:
        print(
            f"FAIL: no traffic for {', '.join(starved)} — this sweep says "
            "nothing about them (more seeds, or other policies)"
        )
    if not report.clean and not args.no_shrink:
        emitted = set()
        for divergence in report.divergences[: args.shrink_limit]:
            if divergence.policy in emitted:
                continue
            emitted.add(divergence.policy)
            print(f"shrinking seed {divergence.seed} ({divergence.policy}) ...")
            minimal = shrink_case(divergence.spec, divergence.policy)
            path = write_regression_test(minimal, divergence.policy, args.emit_dir)
            print(f"  minimized repro written to {path}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
        print(f"report written to {args.report}")
    if args.profile:
        print()
        print(report.profile.report())
    return 0 if report.clean and not starved else 1
