"""``repro perf-report``: the tracked performance report.

Folds the ``BENCH_*.json`` perf-trajectory records the benchmark suite
emits together with an ECM-vs-simulator cycle-prediction error table (see
``docs/perf-model.md``).  ``--bench-dir`` points at the artifact directory,
``--out`` writes the markdown, ``--skip-validation`` omits the
(simulation-running) ECM sweep.
"""

import argparse
from pathlib import Path

from repro.analysis.perf_report import generate_perf_report
from repro.analysis.validation import ECM_VALIDATION_POLICIES
from repro.common.config import validate_core_counts


def run(args: argparse.Namespace) -> int:
    workload_ids = None
    if args.workloads:
        workload_ids = [int(token) for token in args.workloads.split(",")]
    policies = (
        tuple(args.policies.split(",")) if args.policies else ECM_VALIDATION_POLICIES
    )
    ncore_counts = validate_core_counts(args.cores) if args.cores else None
    alloc_counts = (
        validate_core_counts(args.alloc_cores, source="--alloc-cores")
        if args.alloc_cores
        else None
    )
    text = generate_perf_report(
        bench_dir=Path(args.bench_dir),
        out=Path(args.out) if args.out else None,
        scale=args.scale,
        workload_ids=workload_ids,
        policies=policies,
        validate=not args.skip_validation,
        ncore_counts=ncore_counts,
        alloc_counts=alloc_counts,
    )
    if args.out:
        print(f"perf report written to {args.out}")
    else:
        print(text, end="")
    return 0
