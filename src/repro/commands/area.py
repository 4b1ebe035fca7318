"""``repro area``: the Fig. 12 area breakdown."""

import argparse

from repro.analysis.area import area_model
from repro.analysis.reporting import format_table
from repro.cli import POLICY_KEYS
from repro.common.config import table4_config


def run(args: argparse.Namespace) -> int:
    config = table4_config(num_cores=args.cores)
    rows = []
    for key in POLICY_KEYS:
        breakdown = area_model(config, key)
        rows.append([key, f"{breakdown.total:.3f}"])
    print(format_table(["arch", f"area mm^2 ({args.cores}-core)"], rows))
    return 0
