"""``repro figures``: render the motivating example's figures as SVG."""

import argparse
import os

from repro.analysis.experiments import motivation_fig2
from repro.analysis.plots import lane_timeline_svg, series_svg, write_svg


def run(args: argparse.Namespace) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    result = motivation_fig2(scale=args.scale, jobs=args.jobs)
    occamy = result.results["occamy"]
    write_svg(
        lane_timeline_svg(
            {
                "core0 (WL#0)": occamy.metrics.lane_timeline[0].points,
                "core1 (WL#1)": occamy.metrics.lane_timeline[1].points,
            },
            total_cycles=occamy.total_cycles,
            title="Occamy elastic lane schedule (Fig. 8)",
        ),
        os.path.join(args.output_dir, "fig8_lane_plan.svg"),
    )
    for key in ("private", "occamy"):
        write_svg(
            series_svg(
                {
                    "core0": result.lane_series(key, 0),
                    "core1": result.lane_series(key, 1),
                },
                title=f"Busy lanes — {key}",
            ),
            os.path.join(args.output_dir, f"fig2_busy_lanes_{key}.svg"),
        )
    print(f"figures written to {args.output_dir}/")
    return 0
