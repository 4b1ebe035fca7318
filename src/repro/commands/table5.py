"""``repro table5``: reproduce Table 5."""

import argparse

from repro.analysis.experiments import TABLE5_HEADERS, table5_cells
from repro.analysis.reporting import format_table
from repro.common.config import table4_config


def run(args: argparse.Namespace) -> int:
    print(format_table(TABLE5_HEADERS, table5_cells(table4_config())))
    return 0
