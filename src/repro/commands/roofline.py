"""``repro roofline``: Eq. 4 ceilings and greedy partitions for one intensity."""

import argparse

from repro.analysis.reporting import format_table
from repro.common.config import table4_config
from repro.core.partition import greedy_partition
from repro.core.roofline import RooflineModel
from repro.isa.registers import OIValue


def run(args: argparse.Namespace) -> int:
    config = table4_config()
    roofline = RooflineModel.from_config(config)
    oi = OIValue(issue=args.oi_issue, mem=args.oi_mem, level=args.level)
    rows = [
        [
            lanes,
            f"{roofline.fp_peak(lanes) * 2:.1f}",
            f"{roofline.issue_bound(lanes, oi) * 2:.1f}",
            f"{roofline.mem_bound(oi) * 2:.1f}",
            f"{roofline.attainable_gflops(lanes, oi):.1f}",
        ]
        for lanes in (1, 2, 4, 8, 12, 16, 20, 24, 28, 32)
    ]
    print(format_table(["lanes", "comp", "issue", "mem", "attainable"], rows))
    print(f"saturation: {roofline.saturation_lanes(oi)} lanes")
    other = OIValue(0.6, 1.0, level="vec_cache")
    plan = greedy_partition({0: oi, 1: other}, 32, roofline)
    print(f"vs a wsm5-style co-runner the greedy plan is {plan}")
    return 0
