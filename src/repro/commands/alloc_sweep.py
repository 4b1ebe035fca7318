"""``repro alloc-sweep``: thread-to-core allocation policies on large machines.

The Fig. 16 blend tiled across ``--cores N`` machines, placed into two-core
complexes by each ``--alloc`` policy (random / round-robin / oi-balance /
oi-pack / symbiosis), every complex then co-run under the ``--policies``
sharing modes.  ``--calibrate`` refines the symbiosis compatibility matrix
with short cached micro co-runs; ``--report OUT.json`` emits per-pair cycles
plus run-fingerprint digests (CI asserts the digests are placement-
invariant).  See ``docs/allocation.md``.
"""

import argparse
import hashlib
import json

from repro.alloc import ALLOC_POLICY_KEYS
from repro.analysis.experiments import alloc_sweep
from repro.analysis.reporting import format_table
from repro.common.config import validate_core_counts
from repro.validation.fingerprint import run_fingerprint


def run(args: argparse.Namespace) -> int:
    core_counts = validate_core_counts(args.cores)
    alloc_keys = tuple(args.alloc.split(",")) if args.alloc else ALLOC_POLICY_KEYS
    sharing_keys = tuple(args.policies.split(",")) if args.policies else ("occamy",)
    outcomes = alloc_sweep(
        core_counts,
        alloc_keys=alloc_keys,
        sharing_keys=sharing_keys,
        scale=args.scale,
        seed=args.seed,
        calibrate=args.calibrate,
        jobs=args.jobs,
    )
    report = []
    for outcome in outcomes:
        rows = []
        pairs = []
        for index, result in enumerate(outcome.results):
            digest = hashlib.sha256(
                repr(run_fingerprint(result)).encode("utf-8")
            ).hexdigest()
            rows.append([outcome.pair_label(index), result.total_cycles, digest[:16]])
            pairs.append(
                {
                    "label": outcome.pair_label(index),
                    "workloads": list(outcome.complex_workloads(index)),
                    "cycles": result.total_cycles,
                    "fingerprint": digest,
                }
            )
        print(
            f"\n{outcome.num_cores} cores, alloc={outcome.alloc_key}, "
            f"sharing={outcome.sharing_key}:"
        )
        print(format_table(["pair", "cycles", "fingerprint"], rows))
        print(f"per-thread geomean: {outcome.geomean_cycles():.1f}")
        report.append(
            {
                "num_cores": outcome.num_cores,
                "alloc": outcome.alloc_key,
                "sharing": outcome.sharing_key,
                "geomean_cycles": outcome.geomean_cycles(),
                "pairs": pairs,
            }
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({"sweep": report}, handle, indent=2, sort_keys=True)
        print(f"\nreport written to {args.report}")
    return 0
