"""Auto-generated markdown perf report (``repro perf-report``).

Folds two data sources into one reader-facing document, in the spirit of
a tracked ``ipc_report`` doc:

* the ``BENCH_*.json`` perf-trajectory records every CI-gated speedup
  benchmark emits (:func:`benchmarks.conftest.record_bench`) — the
  engineering trajectory: how much faster each subsystem is than its
  reference path, per run, in a stable schema;
* the ECM-vs-simulator cross-validation of
  :func:`repro.analysis.validation.validate_ecm` — the modelling
  trajectory: per-workload/policy predicted vs measured cycles, IPC,
  relative errors and their geometric mean against the gate its row in
  :mod:`repro.analysis.fidelity` states.

The report is deterministic given its inputs (records are sorted by
bench name, validation rows by workload id), so two runs over the same
artifacts diff clean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.fidelity import ROW
from repro.analysis.reporting import md_table
from repro.analysis.validation import (
    ECM_VALIDATION_POLICIES,
    EcmValidation,
    validate_ecm,
)
from repro.common.config import MachineConfig, describe, experiment_config
from repro.common.errors import ConfigurationError

#: The fidelity row that gates the ECM geomean relative cycle error.
ECM_GATE_ROW = ROW["ECM model", "geomean cycle error, occamy/fts/cts (our bound)"]

#: Default workload scale for the report's validation sweep (small: the
#: report is generated in CI after the benchmark jobs; accuracy holds
#: across scales — see the validation suite).
DEFAULT_REPORT_SCALE = 0.05


def load_bench_records(bench_dir: Path) -> List[Dict[str, object]]:
    """Read every ``BENCH_*.json`` record under ``bench_dir`` (recursive).

    Records missing the shared schema tag or a bench name are skipped —
    artifact directories accumulate unrelated JSON; a malformed record
    (unreadable, non-object) is skipped too rather than failing the
    whole report.
    """
    records = []
    for path in sorted(bench_dir.rglob("BENCH_*.json")):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            continue
        if isinstance(record, dict) and record.get("bench"):
            records.append(record)
    records.sort(key=lambda r: str(r.get("bench")))
    return records


def _trajectory_section(records: List[Dict[str, object]]) -> List[str]:
    lines = ["## Perf trajectory (CI-gated speedup benchmarks)", ""]
    if not records:
        lines += [
            "_No `BENCH_*.json` records found — run the benchmark suite "
            "(or point `--bench-dir` at the CI artifacts) to populate "
            "this section._",
        ]
        return lines
    rows = []
    for record in records:
        rows.append(
            [
                f"`{record.get('bench')}`",
                f"{record.get('speedup', 0):.2f}x",
                f"{record.get('slow_seconds', 0):.2f}s",
                f"{record.get('fast_seconds', 0):.2f}s",
                record.get("bench_scale", "?"),
                record.get("python", "?"),
                record.get("recorded_at", "?"),
            ]
        )
    lines += [
        md_table(
            ["bench", "speedup", "reference", "optimised", "scale", "python", "recorded"],
            rows,
        ),
        "",
        "Each row is one optimisation's reference-vs-optimised wall time "
        "at the recorded workload scale; the CI gates in "
        "`.github/workflows/ci.yml` fail the build if a speedup regresses "
        "below its floor.",
    ]
    return lines


def _validation_section(validation: EcmValidation) -> List[str]:
    gate = ECM_GATE_ROW.paper_value
    geo = validation.geomean_error
    verdict = ECM_GATE_ROW.judge(geo).status
    lines = [
        "## ECM model vs simulator (cycle-prediction error)",
        "",
        f"Workload scale {validation.scale}; policies "
        f"{', '.join(sorted({p.policy_key for p in validation.points}))}; "
        f"predictions use the overlapping ECM convention "
        f"(`non-overlap` column shows the pessimistic bracket).",
        "",
        md_table(
            [
                "workload",
                "policy",
                "predicted",
                "non-overlap",
                "measured",
                "error",
                "pred IPC",
                "meas IPC",
            ],
            validation.table_rows(),
        ),
        "",
    ]
    policy_rows = [
        [key, f"{100 * err:.1f}%"]
        for key, err in validation.errors_by_policy().items()
    ]
    lines += [
        md_table(["policy", "geomean error"], policy_rows),
        "",
        f"**Geomean relative cycle error: {100 * geo:.1f}% "
        f"(max {100 * validation.max_error:.1f}%) — gate ≤ {100 * gate:.0f}%: "
        f"{verdict}.**",
    ]
    bracket_misses = [p for p in validation.points if not p.brackets]
    if bracket_misses:
        labels = ", ".join(f"{p.workload}/{p.policy_key}" for p in bracket_misses)
        lines += [
            "",
            f"Convention brackets missed for: {labels} — the measurement "
            "fell outside [overlap, non-overlap], i.e. the decomposition "
            "itself (not just the overlap assumption) diverged there.",
        ]
    return lines


def _ncore_section(outcomes: Sequence[object]) -> List[str]:
    """Per-core-count geomean rows from an :func:`ncore_sweep` run."""
    from repro.analysis.experiments import NCORE_POLICY_KEYS

    policy_keys = [key for key in NCORE_POLICY_KEYS if key != "private"]
    rows = []
    for outcome in outcomes:
        row: List[object] = [
            outcome.num_cores,
            ",".join(str(workload) for workload in outcome.group),
        ]
        row += [
            f"{outcome.geomean_speedup(key):.2f}x" for key in policy_keys
        ]
        row.append(f"{100 * outcome.utilization('occamy'):.1f}%")
        rows.append(row)
    headers = ["cores", "workloads"] + [
        f"{key} geomean" for key in policy_keys
    ] + ["occamy util"]
    return [
        "## N-core scaling (geomean speedup over Private)",
        "",
        md_table(headers, rows),
        "",
        "Each row co-runs the Fig. 16 workload blend tiled across the "
        "machine (`repro motivate --cores`); geomeans are per-core "
        "speedups over the Private baseline at the same size.",
    ]


def _alloc_section(
    outcomes: Sequence[object], winloss: Sequence[object]
) -> List[str]:
    """Allocation geomean table plus the per-pair sharing win/loss table."""
    rows = []
    baselines: Dict[int, float] = {}
    for outcome in outcomes:
        if outcome.alloc_key == "random":
            baselines[outcome.num_cores] = outcome.geomean_cycles()
    for outcome in outcomes:
        geo = outcome.geomean_cycles()
        base = baselines.get(outcome.num_cores)
        delta = "—" if not base else f"{100 * (geo - base) / base:+.1f}%"
        rows.append(
            [
                outcome.num_cores,
                outcome.alloc_key,
                outcome.sharing_key,
                f"{geo:.1f}",
                delta,
                " ".join(outcome.pair_labels()),
            ]
        )
    lines = [
        "## Thread-to-core allocation (per-thread geomean cycles)",
        "",
        md_table(
            ["cores", "allocation", "sharing", "geomean", "Δ vs random", "pairing"],
            rows,
        ),
        "",
        "Placement is decided before simulation (`repro alloc-sweep`); "
        "each two-core complex then runs independently under the sharing "
        "policy, so the same pair costs the same cycles under every "
        "allocation policy.  Lower geomean is better; `oi-pack` is the "
        "adversarial losing bound.",
    ]
    if winloss:
        sharing_keys = sorted(winloss[0].cycles)
        wl_rows: List[List[object]] = []
        wins = {key: 0 for key in sharing_keys}
        for row in winloss:
            wins[row.winner] += 1
            wl_rows.append(
                [row.label]
                + [row.cycles[key] for key in sharing_keys]
                + [row.winner]
            )
        wl_rows.append(
            ["**wins**"] + [wins[key] for key in sharing_keys] + ["—"]
        )
        lines += [
            "",
            "### Per-pair sharing-policy win/loss (symbiosis placement)",
            "",
            md_table(["pair"] + sharing_keys + ["winner"], wl_rows),
            "",
            "Each row is one co-scheduled pair's total cycles under every "
            "sharing policy; the winner column names the cheapest policy "
            "for that pair.",
        ]
    return lines


def _config_section(config: MachineConfig) -> List[str]:
    rows = [
        [key, value, unit] for key, (value, unit) in describe(config).items()
    ]
    return [
        "## Machine configuration",
        "",
        md_table(["knob", "value", "unit"], rows),
    ]


def render_report(
    records: List[Dict[str, object]],
    validation: Optional[EcmValidation] = None,
    config: Optional[MachineConfig] = None,
    ncore_outcomes: Optional[Sequence[object]] = None,
    alloc_outcomes: Optional[Sequence[object]] = None,
    alloc_winloss: Optional[Sequence[object]] = None,
) -> str:
    """Render the markdown report from already-gathered inputs."""
    config = config or experiment_config()
    lines = [
        "# Performance report",
        "",
        "Auto-generated by `repro perf-report` — do not edit by hand. "
        "See `docs/perf-model.md` for how to read this report.",
        "",
    ]
    lines += _config_section(config)
    lines += [""]
    lines += _trajectory_section(records)
    lines += [""]
    if ncore_outcomes:
        lines += _ncore_section(ncore_outcomes)
        lines += [""]
    if alloc_outcomes:
        lines += _alloc_section(alloc_outcomes, alloc_winloss or ())
        lines += [""]
    if validation is not None:
        lines += _validation_section(validation)
    else:
        lines += [
            "## ECM model vs simulator",
            "",
            "_Validation skipped (`--skip-validation`)._",
        ]
    return "\n".join(lines) + "\n"


def generate_perf_report(
    bench_dir: Path = Path("."),
    out: Optional[Path] = None,
    scale: float = DEFAULT_REPORT_SCALE,
    workload_ids: Optional[Sequence[int]] = None,
    policies: Sequence[str] = ECM_VALIDATION_POLICIES,
    validate: bool = True,
    config: Optional[MachineConfig] = None,
    ncore_counts: Optional[Sequence[int]] = None,
    alloc_counts: Optional[Sequence[int]] = None,
) -> str:
    """Gather inputs, render the report, optionally write it to ``out``.

    ``ncore_counts`` adds the N-core scaling section: the Fig. 16 blend
    co-run at each machine size (results come from the shared two-level
    simulation cache, so a CI re-render after the sweep is warm).
    ``alloc_counts`` adds the allocation section: every pairing policy
    swept at each size, plus the per-pair sharing win/loss table under
    the symbiosis placement at the largest size.
    """
    if scale <= 0:
        raise ConfigurationError(f"scale must be positive, got {scale}")
    records = load_bench_records(Path(bench_dir))
    ncore_outcomes = None
    if ncore_counts:
        from repro.analysis.experiments import ncore_sweep

        ncore_outcomes = ncore_sweep(tuple(ncore_counts), scale=scale)
    alloc_outcomes = None
    winloss = None
    if alloc_counts:
        from repro.analysis.experiments import alloc_sweep, alloc_winloss

        alloc_outcomes = alloc_sweep(tuple(alloc_counts), scale=scale)
        winloss = alloc_winloss(max(alloc_counts), scale=scale)
    validation = (
        validate_ecm(
            workload_ids=workload_ids, policies=policies, scale=scale, config=config
        )
        if validate
        else None
    )
    text = render_report(
        records,
        validation,
        config=config,
        ncore_outcomes=ncore_outcomes,
        alloc_outcomes=alloc_outcomes,
        alloc_winloss=winloss,
    )
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
