#!/usr/bin/env python
"""Render the paper's key figures as standalone SVG files.

Runs the motivating example on all four architectures and writes:

* ``fig2_busy_lanes.svg`` — per-core busy-lane curves (Fig. 2(b)/(e));
* ``fig8_lane_plan.svg`` — Occamy's elastic lane schedule (Fig. 8);
* ``fig2f_speedups.svg`` — per-architecture speedup bars (Fig. 2(f)).

Run:  python examples/render_figures.py [output_dir]
"""

import os
import sys

from repro.analysis.experiments import motivation_fig2
from repro.analysis.plots import (
    bar_chart_svg,
    lane_timeline_svg,
    series_svg,
    write_svg,
)


def main(output_dir: str = "figures") -> None:
    os.makedirs(output_dir, exist_ok=True)
    print("simulating the motivating example on all four architectures...")
    result = motivation_fig2(scale=0.5)

    # Fig. 2(b)/(e): busy lanes per 1000-cycle bucket.
    for key in ("private", "occamy"):
        svg = series_svg(
            {
                "core0 (WL#0, memory)": result.lane_series(key, 0),
                "core1 (WL#1, compute)": result.lane_series(key, 1),
            },
            title=f"Busy lanes — {key}",
        )
        path = os.path.join(output_dir, f"fig2_busy_lanes_{key}.svg")
        write_svg(svg, path)
        print("wrote", path)

    # Fig. 8: the elastic lane plan.
    occamy = result.results["occamy"]
    svg = lane_timeline_svg(
        {
            "core0 (WL#0)": occamy.metrics.lane_timeline[0].points,
            "core1 (WL#1)": occamy.metrics.lane_timeline[1].points,
        },
        total_cycles=occamy.total_cycles,
        title="Occamy elastic lane schedule (Fig. 8)",
    )
    path = os.path.join(output_dir, "fig8_lane_plan.svg")
    write_svg(svg, path)
    print("wrote", path)

    # Fig. 2(f): speedups.
    policies = ("private", "fts", "vls", "occamy")
    svg = bar_chart_svg(
        ["Core0 (memory)", "Core1 (compute)"],
        {key: [result.speedup(key, 0), result.speedup(key, 1)] for key in policies},
        y_label="speedup over Private",
        title="Motivating example speedups (Fig. 2(f))",
        width=520,
    )
    path = os.path.join(output_dir, "fig2f_speedups.svg")
    write_svg(svg, path)
    print("wrote", path)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "figures")
