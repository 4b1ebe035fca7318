"""Run-trace export and ASCII visualisation.

``export_trace`` serialises a :class:`RunResult` — lane timelines, phase
records, stall breakdowns, cache/bandwidth statistics — into plain JSON
for external tooling; ``phase_gantt`` renders a terminal Gantt chart of
the phases with their lane allocations, the picture Figs. 2/8/14(b) tell.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Optional

from repro.core.result import RunResult


def trace_dict(result: RunResult) -> Dict[str, object]:
    """A JSON-serialisable description of one run."""
    metrics = result.metrics
    return {
        "policy": result.policy_key,
        "total_cycles": result.total_cycles,
        "core_cycles": list(result.core_cycles),
        "simd_utilization": metrics.simd_utilization(),
        "lane_timelines": [
            [[int(c), float(v)] for c, v in metrics.lane_timeline[core].points]
            for core in range(metrics.num_cores)
        ],
        "phases": [
            {
                "core": phase.core,
                "oi_issue": phase.oi.issue,
                "oi_mem": phase.oi.mem,
                "level": phase.oi.level,
                "start": phase.start_cycle,
                "end": phase.end_cycle,
                "compute_uops": phase.compute_uops,
                "ldst_uops": phase.ldst_uops,
                "issue_rate": phase.issue_rate,
            }
            for phase in metrics.phases
        ],
        "stalls": [
            {reason.value: count for reason, count in metrics.stalls[core].items()}
            for core in range(metrics.num_cores)
        ],
        "reconfigurations": {
            "success": list(metrics.reconfig_success),
            "failed": list(metrics.reconfig_failed),
        },
        "overhead": [
            metrics.overhead_fraction(core) for core in range(metrics.num_cores)
        ],
    }


def export_trace(result: RunResult, path: str) -> None:
    """Write :func:`trace_dict` to ``path`` as indented JSON, atomically.

    The JSON is staged in a temporary file in the destination directory
    (created if missing) and moved into place with :func:`os.replace`, so
    a crash mid-serialisation can never leave a truncated trace behind —
    readers see either the previous complete file or the new one.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(trace_dict(result), handle, indent=2)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def phase_gantt(result: RunResult, width: int = 64) -> str:
    """An ASCII Gantt chart: one row per phase, bar over its life span,
    annotated with the lane allocation at phase start."""
    metrics = result.metrics
    total = max(1, result.total_cycles)
    lines: List[str] = [
        f"policy={result.policy_key}  total={result.total_cycles} cycles  "
        f"util={100 * metrics.simd_utilization():.1f}%"
    ]
    for phase in metrics.phases:
        end = phase.end_cycle if phase.end_cycle is not None else total
        start_col = int(phase.start_cycle / total * width)
        end_col = max(start_col + 1, int(end / total * width))
        bar = " " * start_col + "#" * (end_col - start_col)
        bar = bar.ljust(width)
        # The lane grant lands a few cycles after the phase marker (the
        # prologue's MSR <VL> spin); report the first allocation in-phase.
        lanes = next(
            (
                value
                for cycle, value in metrics.lane_timeline[phase.core].points
                if phase.start_cycle <= cycle <= end and value > 0
            ),
            metrics.lane_timeline[phase.core].value_at(phase.start_cycle),
        )
        lines.append(
            f"core{phase.core} |{bar}| oi={phase.oi} "
            f"lanes@start={int(lanes)} issue={phase.issue_rate:.2f}"
        )
    return "\n".join(lines)
