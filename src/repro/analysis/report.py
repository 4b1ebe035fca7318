"""One-shot reproduction report: every headline number in one Markdown file.

``generate_report`` runs a configurable slice of the evaluation (the
motivating example, a subset or all of the 25 pairs, Table 5, the area
model) and writes a self-contained Markdown report with paper-vs-measured
tables — the artifact a reviewer would ask for.

CLI: ``python -m repro report out.md [--scale S] [--pairs N]``.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis import fidelity
from repro.analysis.area import area_model
from repro.analysis.experiments import (
    TABLE5_HEADERS,
    MotivationResult,
    motivation_and_pairs,
    table5_cells,
)
from repro.analysis.reporting import md_table
from repro.common.config import MachineConfig, experiment_config, table4_config
from repro.workloads.pairs import all_pairs


def _paper(artefact: str, quantity: str) -> str:
    """The paper's figure, as :mod:`repro.analysis.fidelity` states it."""
    return fidelity.ROW[artefact, quantity].paper_text


def _fig2_section(result: MotivationResult) -> str:
    rows = []
    for key in fidelity.POLICIES:
        # Private is the baseline: 1 by definition, not a number of the paper's.
        paper = "1.00" if key == "private" else _paper("Fig. 2", f"sp1 {key}")
        rows.append(
            [
                key,
                f"{result.speedup(key, 1):.2f}x",
                f"{paper}x",
                f"{result.speedup(key, 0):.2f}x",
                f"{100 * result.utilization(key):.1f}%",
            ]
        )
    plans = result.results["occamy"].lane_manager.plan_history
    plan_text = " -> ".join(str(plan) for _cycle, plan in plans[:4])
    return (
        "## Motivating example (Fig. 2)\n\n"
        + md_table(["arch", "sp1", "sp1 (paper)", "sp0", "util"], rows)
        + f"\n\nOccamy's elastic plan: `{plan_text}`\n"
    )


def _pairs_section(outcomes) -> str:
    gm1 = {key: fidelity.gm_speedup(outcomes, key, 1) for key in fidelity.SHARING}
    gm0 = fidelity.gm_speedup(outcomes, "occamy", 0)
    util = {key: fidelity.gm_utilization(outcomes, key) for key in fidelity.POLICIES}
    fts_stalls = fidelity.gm_fts_rename_stalls(outcomes)
    paper_gm1 = " / ".join(_paper("Fig. 10", f"GM sp1 {key}") for key in fidelity.SHARING)
    paper_util = " / ".join(_paper("Fig. 11", f"GM util {key}") for key in fidelity.SHARING)
    rows = [
        ["GM Core1 speedup", f"{gm1['fts']:.2f}", f"{gm1['vls']:.2f}",
         f"{gm1['occamy']:.2f}", paper_gm1],
        ["GM utilisation", f"{100 * util['fts']:.1f}%", f"{100 * util['vls']:.1f}%",
         f"{100 * util['occamy']:.1f}%",
         f"{paper_util} (Private {_paper('Fig. 11', 'GM util private')})"],
    ]
    return (
        f"## Co-running pairs (Figs. 10/11/13; {len(outcomes)} pairs)\n\n"
        + md_table(["metric", "FTS", "VLS", "Occamy", "paper"], rows)
        + f"\n\nOccamy Core0 GM: {gm0:.2f}x "
        f"(paper ~{_paper('Fig. 10', 'GM sp0 occamy')}). "
        f"FTS renaming stalls GM (worst core): {100 * fts_stalls:.0f}% "
        f"(paper {_paper('Fig. 13', 'GM fts stalls (worst core)')}); "
        "0% on the spatial policies.\n"
    )


def _table5_section(config: MachineConfig) -> str:
    return (
        "## Table 5 (exact reproduction)\n\n"
        + md_table(TABLE5_HEADERS, table5_cells(config))
        + "\n"
    )


def _area_section() -> str:
    config = table4_config()
    rows = [
        [key, f"{area_model(config, key).total:.3f}", _paper("Fig. 12", f"mm^2 {key}")]
        for key in fidelity.POLICIES
    ]
    overhead = fidelity.ROW["Fig. 12", "4-core fts overhead"]
    return (
        "## Area (Fig. 12)\n\n"
        + md_table(["arch", "mm^2", "paper"], rows)
        + f"\n\n4-core FTS overhead: {overhead.ours_text(fidelity.fts_area_overhead())} "
        f"(paper {overhead.paper_text}).\n"
    )


def generate_report(
    scale: float = 0.4,
    pairs_limit: Optional[int] = 6,
    config: Optional[MachineConfig] = None,
    jobs: Optional[int] = None,
) -> str:
    """Build the Markdown report (runs the simulations; ``jobs`` fans them
    across worker processes)."""
    config = config or experiment_config()
    pairs = all_pairs()
    if pairs_limit is not None:
        pairs = pairs[:pairs_limit]
    motivation, outcomes = motivation_and_pairs(pairs, scale, config, jobs)
    sections = [
        "# Occamy reproduction report\n",
        f"Workload scale {scale}; {config.num_cores} cores, "
        f"{config.vector.total_lanes} lanes.  See EXPERIMENTS.md for the "
        "full-suite numbers and fidelity notes.\n",
        _fig2_section(motivation),
        _pairs_section(outcomes),
        _table5_section(config),
        _area_section(),
    ]
    return "\n".join(sections)


def write_report(path: str, **kwargs) -> None:
    """Generate and write the report to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(generate_report(**kwargs))
