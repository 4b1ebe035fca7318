"""Evaluation drivers: one entry point per paper figure/table.

``experiments`` runs the simulations (with memoisation so Fig. 10/11/13/15
share one pair sweep), ``area`` provides the Fig. 12 analytical area model,
and ``reporting`` renders the ASCII and Markdown tables.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.area import AreaBreakdown, area_model
    from repro.analysis.experiments import (
        CaseStudyResult,
        MotivationResult,
        PairOutcome,
        case_study_fig14,
        clear_sweep_cache,
        four_core_fig16,
        motivation_fig2,
        pair_outcome,
        run_with_fixed_lanes,
        sweep_pairs,
        table5_rows,
    )
    from repro.analysis.reporting import format_series, format_table, geomean
    from repro.analysis.sensitivity import SensitivityPoint, sweep
    from repro.analysis.trace import export_trace, phase_gantt, trace_dict
    from repro.analysis.validation import PhaseValidation, validate_phase

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.area": ("AreaBreakdown", "area_model"),
        "repro.analysis.experiments": (
            "CaseStudyResult", "MotivationResult", "PairOutcome", "case_study_fig14",
            "clear_sweep_cache", "four_core_fig16", "motivation_fig2", "pair_outcome",
            "run_with_fixed_lanes", "sweep_pairs", "table5_rows"
        ),
        "repro.analysis.reporting": ("format_series", "format_table", "geomean"),
        "repro.analysis.sensitivity": ("SensitivityPoint", "sweep"),
        "repro.analysis.trace": ("export_trace", "phase_gantt", "trace_dict"),
        "repro.analysis.validation": ("PhaseValidation", "validate_phase"),
    },
)
