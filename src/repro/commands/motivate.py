"""``repro motivate``: the §2 motivating example on all four architectures.

With ``--cores N [N ...]`` it instead sweeps the N-core scaling matrix
(§4.2.1 machines built by ``MachineConfig.scaled_to_cores``): the Fig. 16
workload blend tiled across 2/4/8/16/32 cores, each size co-run under
private/occamy/fts/cts.
"""

import argparse

from repro.analysis.experiments import (
    NCORE_POLICY_KEYS,
    motivation_fig2,
    ncore_outcome,
)
from repro.analysis.reporting import format_table
from repro.cli import POLICY_KEYS
from repro.common.config import validate_core_counts


def run(args: argparse.Namespace) -> int:
    if args.cores:
        args.cores = validate_core_counts(args.cores)
        return _motivate_ncore(args)
    result = motivation_fig2(scale=args.scale, jobs=args.jobs)
    rows = []
    for key in POLICY_KEYS:
        sim = result.results[key]
        rows.append(
            [
                key,
                sim.core_time(0),
                sim.core_time(1),
                f"{result.speedup(key, 0):.2f}x",
                f"{result.speedup(key, 1):.2f}x",
                f"{100 * result.utilization(key):.1f}%",
            ]
        )
    print(format_table(["arch", "WL#0", "WL#1", "sp0", "sp1", "util"], rows))
    print("\nOccamy lane plans:")
    for cycle, plan in result.results["occamy"].lane_manager.plan_history:
        print(f"  {cycle:>8}: {plan}")
    return 0


def _motivate_ncore(args: argparse.Namespace) -> int:
    for num_cores in args.cores:
        outcome = ncore_outcome(num_cores, scale=args.scale, jobs=args.jobs)
        rows = []
        for key in NCORE_POLICY_KEYS:
            sim = outcome.results[key]
            rows.append(
                [
                    key,
                    sim.total_cycles,
                    f"{outcome.geomean_speedup(key):.2f}x",
                    f"{100 * outcome.utilization(key):.1f}%",
                ]
            )
        group = ",".join(str(workload) for workload in outcome.group)
        print(f"\n{num_cores} cores (workloads {group}):")
        print(format_table(["arch", "cycles", "geomean", "util"], rows))
    return 0
