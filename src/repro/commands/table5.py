"""``repro table5``: reproduce Table 5."""

import argparse

from repro.analysis.experiments import table5_rows
from repro.analysis.reporting import format_table
from repro.common.config import table4_config


def run(args: argparse.Namespace) -> int:
    rows = [
        [
            int(row["vl"]),
            f"{row['simd_issue_bound']:.1f}",
            f"{row['mem_bound']:.1f}",
            f"{row['comp_bound']:.1f}",
            f"{row['performance']:.1f}",
        ]
        for row in table5_rows(table4_config())
    ]
    print(format_table(["VL", "IssueBound", "MemBound", "CompBound", "Perf"], rows))
    return 0
