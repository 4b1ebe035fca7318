"""Ground truth as data: every headline number of the paper's evaluation,
and every claim this repository makes beyond it, once.

:data:`ROWS` is the table — one :class:`Row` per number the paper gives
(:data:`PAPER`: §7, Figs. 2/8/10–16, Tables 3/5, §7.4), then one per claim
beyond the paper (:data:`BEYOND`: the ablations of §4's LaneMgr, the CTS
baseline, sensitivity, the roofline and ECM models):
the artefact, the quantity, the paper's value, how ours is measured, a
tolerance on the relative error and, where we already know ours is off,
the reason as text.  A paper value is a number, a bound (:class:`Bound`:
``>70%``, ``<1%``) or an ordering (:class:`Best`: "Occamy has the best
GM"); a claim beyond the paper is a bound or an ordering of our own.

:func:`fidelity_rows` measures every row — a fold over what the figure
drivers of :mod:`repro.analysis.experiments`, the sweeps of
:mod:`~repro.analysis.sensitivity` and :mod:`~repro.analysis.validation`,
``area_model`` and ``analyze_kernel`` already return, so everything
simulated is a cached, ``--jobs``-parallel task list — and judges it PASS,
KNOWN-DELTA, FAIL or STALE-NOTE; :func:`render` prints what each means
above the table.

Four consumers, no other copy of a paper number or of one of our bounds
under ``src/`` or ``benchmarks/``: ``repro report`` takes its paper columns
from :data:`ROW`, ``repro perf-report`` its ECM gate,
``benchmarks/test_paper_fidelity.py`` is one test parametrised over the
rows, and ``repro fidelity`` prints :func:`render`, the block EXPERIMENTS.md
carries between its ``fidelity`` markers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.area import CONTROL_LOGIC, area_model
from repro.analysis.experiments import (
    CaseStudyResult,
    Jobs,
    MotivationResult,
    PairOutcome,
    case_study_fig14,
    four_core_fig16,
    pair_outcome,
    run_grid,
    sweep_pairs,
    table5_rows,
)
from repro.analysis.reporting import geomean, md_table
from repro.common.config import experiment_config, table4_config
from repro.compiler.phase_analysis import analyze_kernel
from repro.coproc.metrics import StallReason
from repro.core.result import RunResult
from repro.workloads.opencv import OPENCV_KERNELS, OPENCV_WORKLOADS, opencv_workload
from repro.workloads.pairs import CoRunPair
from repro.workloads.spec import SPEC_PHASES, SPEC_WORKLOADS, spec_workload

if TYPE_CHECKING:  # measured by modules a warm ``repro report`` never loads
    from repro.analysis.sensitivity import SensitivityPoint
    from repro.analysis.validation import EcmValidation, PhaseValidation

POLICIES = ("private", "fts", "vls", "occamy")
SHARING = POLICIES[1:]

#: Relative-error tolerances: what the paper's own models define must
#: match to its printed precision; a simulated number within 10 %.
ANALYTICAL = 0.01
SIMULATED = 0.10
#: Table 3's per-phase oi_mem (tier-1's ``OI_TOLERANCE``).
TABLE3 = 0.16
#: Lane grants are multiples of four, an ordering holds or does not: no slack.
EXACT = 0.0
#: The scale the notes, their reach and hence the statuses are calibrated at
#: (what EXPERIMENTS.md, CI and the benchmark measure); ``repro fidelity
#: --scale`` anything else is for looking, and may FAIL.
CALIBRATED_SCALE = 0.5

PASS, KNOWN_DELTA, FAIL, STALE_NOTE = "PASS", "KNOWN-DELTA", "FAIL", "STALE-NOTE"
#: The statuses ``repro fidelity`` exits 0 on.
ACCEPTED = (PASS, KNOWN_DELTA)


@dataclass(frozen=True)
class Bound:
    """The paper gives a bound: ``Bound(">", 0.70)``, ``Bound("<", 0.01)``."""

    side: str
    value: float


@dataclass(frozen=True)
class Best:
    """The paper gives an ordering: ``label`` has the highest value."""

    label: str


PaperValue = Union[float, Bound, Best]
#: A number, or for a :class:`Best` row the value per contender.
Measurement = Union[float, Dict[str, float]]


def relative_error(paper: PaperValue, ours: Measurement) -> float:
    """How far ``ours`` is from what the paper says, relative to the
    paper's figure: a bound or an ordering that holds is 0, one that does
    not is short by the missing fraction."""
    if isinstance(paper, Best):
        rival = max(value for label, value in ours.items() if label != paper.label)
        return (rival - ours[paper.label]) / rival if rival > ours[paper.label] else 0.0
    if isinstance(paper, Bound):
        short = paper.value - ours if paper.side == ">" else ours - paper.value
        return max(0.0, short / paper.value)
    return abs(ours - paper) / abs(paper)


@dataclass(frozen=True)
class Measured:
    """What the figure drivers, and the sweeps beyond the paper, return at
    one scale."""

    #: Fig. 2's co-run under its four policies and :data:`VARIANTS`.
    fig2: MotivationResult
    pairs: List[PairOutcome]
    fig14: CaseStudyResult
    fig16: List[Dict[str, RunResult]]
    #: ``spec:1+13`` under Private, Occamy and ``flat-memory``.
    spec_1_13: PairOutcome
    #: ``sensitivity.sweep`` per parameter of ``SWEEPS``.
    sensitivity: Dict[str, List["SensitivityPoint"]]
    #: ``validate_phase`` per phase name of :data:`ROOFLINE_PHASES`.
    roofline: Dict[str, "PhaseValidation"]
    ecm: "EcmValidation"

    def pair(self, core0: int, core1: int) -> PairOutcome:
        """One of the 25 pairs (the §7.4 cases are three of them)."""
        wanted = CoRunPair("spec", core0, core1)
        return next(outcome for outcome in self.pairs if outcome.pair == wanted)


@dataclass(frozen=True)
class Row:
    """One number the paper gives, and how ours is measured."""

    artefact: str
    quantity: str
    paper: PaperValue
    ours: Callable[[Measured], Measurement]
    #: Format spec of the paper's figure and of ours (``.1%``, ``.3f``).
    fmt: str = ".2f"
    tolerance: float = SIMULATED
    #: Why ours is outside the tolerance; empty when it is not.
    note: str = ""
    #: With a note: how far from the paper's figure the reason reaches.  Ours
    #: between the two is KNOWN-DELTA; past it, or on the other side of the
    #: paper's, the note explains nothing and the row FAILs.
    upto: Optional[float] = None

    @property
    def paper_value(self) -> float:
        """The number of the paper's figure or bound (an ordering has none)."""
        return getattr(self.paper, "value", self.paper)

    @property
    def paper_text(self) -> str:
        if isinstance(self.paper, Best):
            return f"{self.paper.label} highest"
        return getattr(self.paper, "side", "") + format(self.paper_value, self.fmt)

    def ours_text(self, ours: Measurement) -> str:
        if isinstance(self.paper, Best):
            first, second = sorted(ours, key=ours.get, reverse=True)[:2]
            return (
                f"{first} highest ({format(ours[first], self.fmt)}, "
                f"{second} {format(ours[second], self.fmt)})"
            )
        return format(ours, self.fmt)

    @property
    def upto_text(self) -> str:
        if self.upto is None:
            return ""
        side = "down to " if self.upto < self.paper_value else "up to "
        return side + format(self.upto, self.fmt)

    def judge(self, ours: Measurement) -> "Judged":
        error = relative_error(self.paper, ours)
        if error <= self.tolerance:
            status = STALE_NOTE if self.note else PASS
        elif self.note and (self.paper_value <= ours <= self.upto
                            or self.upto <= ours <= self.paper_value):
            status = KNOWN_DELTA
        else:
            status = FAIL
        return Judged(self, ours, error, status)


@dataclass(frozen=True)
class Judged:
    """A :class:`Row` beside our measurement of it."""

    row: Row
    ours: Measurement
    error: float
    status: str

    def cells(self) -> List[str]:
        """The row of the rendered table (:data:`COLUMNS`)."""
        row = self.row
        return [
            row.artefact,
            row.quantity,
            row.paper_text,
            row.ours_text(self.ours),
            f"{self.error:.1%}",
            f"{row.tolerance:.0%}",
            self.status,
            row.upto_text,
            row.note,
        ]


COLUMNS = (
    "artefact", "quantity", "paper", "ours", "error", "tolerance", "status",
    "known delta", "note",
)


# --- folds of the 25-pair sweep (shared with ``repro report``) ---------------


def gm_speedup(outcomes: Sequence[PairOutcome], key: str, core: int) -> float:
    """Fig. 10: geometric-mean speedup over Private on ``core``."""
    return geomean([outcome.speedup(key, core) for outcome in outcomes])


def gm_utilization(outcomes: Sequence[PairOutcome], key: str) -> float:
    """Fig. 11: geometric-mean SIMD utilisation."""
    return geomean([outcome.utilization(key) for outcome in outcomes])


def gm_fts_rename_stalls(outcomes: Sequence[PairOutcome]) -> float:
    """Fig. 13: geometric mean, over the pairs, of the worse core's share
    of cycles stalled for a free register under FTS."""
    return geomean(
        max(outcome.rename_stall_fraction("fts", core) for core in (0, 1))
        for outcome in outcomes
    )


def fts_area_overhead() -> float:
    """§7.6: what 4-core FTS pays over the other architectures."""
    config = table4_config(num_cores=4)
    return area_model(config, "fts").total / area_model(config, "private").total - 1


# --- folds only the table needs ----------------------------------------------


def _fig8_lanes(m: Measured, phase: int, core: int) -> float:
    """Occamy's grant to ``core`` in the first (0) or last (-1) lane plan
    of the motivating co-run that gives both cores lanes."""
    history = m.fig2.results["occamy"].lane_manager.plan_history
    shared = [plan for _cycle, plan in history if plan.get(0) and plan.get(1)]
    return shared[phase][core]


def _spatial_rename_stalls(m: Measured) -> float:
    return max(
        outcome.rename_stall_fraction(key, core)
        for outcome in m.pairs
        for key in ("private", "vls", "occamy")
        for core in (0, 1)
    )


def _overheads(m: Measured, part: str) -> List[float]:
    """Fig. 15: each pair's EM-SIMD overhead under Occamy (``monitor``,
    ``reconfig`` or their ``total``), each part taken on the core that
    pays more of it."""
    parts = ("monitor", "reconfig") if part == "total" else (part,)
    return [
        sum(max(outcome.overhead(core)[p] for core in (0, 1)) for p in parts)
        for outcome in m.pairs
    ]


def _knee(times: Dict[int, float]) -> float:
    """Fig. 14(a): the fewest lanes beyond which the widest run gains
    less than a fifth."""
    widest = times[max(times)]
    return min(lanes for lanes, time in times.items() if widest > 0.8 * time)


def _fig14_rename_stalls(m: Measured, key: str) -> float:
    return m.fig14.corun[key].metrics.stall_fraction(1, StallReason.RENAME)


def _fig16_gm(m: Measured, cores: Sequence[int]) -> Dict[str, float]:
    """Fig. 16: per-policy geometric-mean speedup over ``cores`` of the
    four groups."""
    return {
        key: geomean(
            group[key].speedup_over(group["private"], core)
            for group in m.fig16
            for core in cores
        )
        for key in SHARING
    }


def _table3_worst_ratio(_m: Measured) -> float:
    """Our Eq. 5 oi_mem over Table 3's, for the phase that is furthest off."""
    ratios = [
        info.oi.mem / table[phase].oi_mem
        for workloads, build, table in (
            (SPEC_WORKLOADS, spec_workload, SPEC_PHASES),
            (OPENCV_WORKLOADS, opencv_workload, OPENCV_KERNELS),
        )
        for workload_id in sorted(workloads)
        for info, phase in zip(
            analyze_kernel(build(workload_id, scale=0.05)), workloads[workload_id]
        )
    ]
    return max(ratios, key=lambda ratio: abs(ratio - 1))


def _table5(vl: int, column: str) -> float:
    (row,) = [r for r in table5_rows(table4_config()) if r["vl"] == vl]
    return row[column]


def _area_share(component: str) -> Callable[[Measured], float]:
    return lambda _m: area_model(table4_config(), "occamy").fraction(component)


def _control_growth(_m: Measured) -> float:
    """§4.2.1: control-logic area per core at four cores over two."""
    two, four = (area_model(table4_config(n), "occamy").components for n in (2, 4))
    return sum(four[c] for c in CONTROL_LOGIC) / (2 * sum(two[c] for c in CONTROL_LOGIC))


def _case4_first_grant(m: Measured) -> float:
    timeline = m.pair(8, 17).results["occamy"].metrics.lane_timeline[0]
    return next(lanes for _cycle, lanes in timeline.points if lanes)


# --- folds of the sweeps beyond the paper -------------------------------------

#: The motivating co-run's runs beyond Fig. 2's four: the coarse temporal
#: baseline and two LaneMgr ablations (``core.ablations``).
VARIANTS = ("cts", "equal-split", "no-issue-ceiling")
#: ``validate_phase``'s subjects: compute-bound, streaming, and the Case 4
#: phase with reuse.
ROOFLINE_PHASES = {"wsm52": 17, "sff2": 20, "rho_eos2": 19}
#: The largest scale each sweep beyond the paper runs at: the one its claim
#: was made at, which also holds each sweep to the cost it had then.
SWEEP_SCALES = {"sensitivity": 0.35, "roofline": 0.2, "ECM": 0.1}


def _worst_rename_stalls(m: Measured, key: str) -> float:
    metrics = m.fig2.results[key].metrics
    return max(metrics.stall_fraction(core, StallReason.RENAME) for core in (0, 1))


def _core1_peak_lanes(m: Measured, key: str) -> float:
    timeline = m.spec_1_13.results[key].metrics.lane_timeline[1]
    return max(lanes for _cycle, lanes in timeline.points)


def _sensitivity_low(m: Measured, attribute: str) -> float:
    return min(
        getattr(point, attribute) for points in m.sensitivity.values() for point in points
    )


# --- the reasons, stated once ------------------------------------------------

_FTS_WEAK = (
    "our FTS is too weak: its shared freelist stalls both cores where the "
    "paper's FTS gains (Fig. 13 row; ROADMAP 2(b) suspects coproc/renamer.py)"
)
_SPATIAL_STRONG = (
    "our VLS and Occamy are too strong: memory phases saturate at 8-12 lanes, "
    "so a static plan already hands the compute core 20-24"
)
#: ... which explains a speedup up to this factor over the paper's, no more.
_STRONG_BY = 1.35
_UTIL_LOW = (
    "absolute utilisation is 2-4x low on every architecture: memory phases "
    "stream DRAM at ~0.1 compute uops/cycle, the paper's WL#0 issues ~1 "
    "(experiment_config() shrinks L2 64x); the ratio row below carries it"
)
_SFF5_AT_8 = (
    "Eq. 4 saturates our sff5 (oi_mem 0.21) at 8 lanes, so WL20.p2 is "
    "granted 8 like p1, gains nothing from 12, and WL17 keeps 24 lanes "
    "beside it where Fig. 14(b) steps it down to 20"
)
_PHASES_SHORT = (
    "phases are ~10^4 cycles, not 10^5, so per-phase costs weigh more, and "
    "our reconfiguration bucket counts the spin-wait for a co-runner to "
    "release lanes; ROADMAP 2(c) is to test that at scale >= 1"
)
#: Where the paper says it in words only ("WL17 always benefits from more
#: lanes", "the best speedups", "unlike FTS", a small overhead everywhere),
#: or not at all (:data:`BEYOND`).
_OUR_BOUND = " (our bound)"


PAPER: Tuple[Row, ...] = (
    # -- Fig. 2(f) / Fig. 8: 654.rom_s (WL#0) + 621.wrf_s (WL#1) ---------------
    Row("Fig. 2", "sp1 fts", 1.41, lambda m: m.fig2.speedup("fts", 1),
        note=_FTS_WEAK, upto=1.0),
    Row("Fig. 2", "sp1 vls", 1.25, lambda m: m.fig2.speedup("vls", 1),
        note=_SPATIAL_STRONG, upto=_STRONG_BY * 1.25),
    Row("Fig. 2", "sp1 occamy", 1.62, lambda m: m.fig2.speedup("occamy", 1)),
    Row("Fig. 2", "best sp1", Best("occamy"),
        lambda m: {key: m.fig2.speedup(key, 1) for key in SHARING}, tolerance=EXACT),
    Row("Fig. 2", "sp0 occamy", 0.98, lambda m: m.fig2.speedup("occamy", 0)),
    *(
        Row("Fig. 2", f"util {key}", paper,
            lambda m, key=key: m.fig2.utilization(key), ".1%",
            note=_UTIL_LOW, upto=paper / 4)
        for key, paper in zip(POLICIES, (0.606, 0.847, 0.756, 0.967))
    ),
    Row("Fig. 2", "highest util", Best("occamy"),
        lambda m: {key: m.fig2.utilization(key) for key in POLICIES}, ".1%", EXACT),
    *(
        Row("Fig. 8", quantity, paper,
            lambda m, plan=plan, core=core: _fig8_lanes(m, plan, core), ".0f", EXACT)
        for quantity, paper, plan, core in (
            ("WL#0 lanes, phase 1", 8, 0, 0),
            ("WL#0 lanes, phase 2", 12, -1, 0),
            ("WL#1 lanes beside phase 1", 24, 0, 1),
            ("WL#1 lanes beside phase 2", 20, -1, 1),
        )
    ),
    # -- Fig. 10: Core1 / Core0 speedups over Private, 25 pairs ----------------
    Row("Fig. 10", "GM sp1 fts", 1.20, lambda m: gm_speedup(m.pairs, "fts", 1)),
    Row("Fig. 10", "GM sp1 vls", 1.11, lambda m: gm_speedup(m.pairs, "vls", 1),
        note=_SPATIAL_STRONG, upto=_STRONG_BY * 1.11),
    Row("Fig. 10", "GM sp1 occamy", 1.39, lambda m: gm_speedup(m.pairs, "occamy", 1),
        note=_SPATIAL_STRONG + "; Occamy's lead over VLS is a third of the paper's",
        upto=_STRONG_BY * 1.39),
    Row("Fig. 10", "best GM sp1", Best("occamy"),
        lambda m: {key: gm_speedup(m.pairs, key, 1) for key in SHARING}, tolerance=EXACT),
    *(
        Row("Fig. 10", f"GM sp0 {key}", 1.00,
            lambda m, key=key: gm_speedup(m.pairs, key, 0))
        for key in SHARING
    ),
    # -- Fig. 11: SIMD utilisation, 25 pairs -----------------------------------
    *(
        Row("Fig. 11", f"GM util {key}", paper,
            lambda m, key=key: gm_utilization(m.pairs, key), ".1%",
            note=_UTIL_LOW, upto=paper / 4)
        for key, paper in zip(POLICIES, (0.632, 0.725, 0.708, 0.842))
    ),
    Row("Fig. 11", "highest GM util", Best("occamy"),
        lambda m: {key: gm_utilization(m.pairs, key) for key in POLICIES}, ".1%", EXACT),
    Row("Fig. 11", "GM util occamy / private", 0.842 / 0.632,
        lambda m: gm_utilization(m.pairs, "occamy") / gm_utilization(m.pairs, "private")),
    # -- Fig. 12: area, TSMC 7 nm, 2 cores (and the two scaling statements) ----
    *(
        Row("Fig. 12", f"mm^2 {key}", paper,
            lambda _m, key=key: area_model(table4_config(), key).total, ".3f", ANALYTICAL)
        for key, paper in zip(POLICIES, (1.263, 1.263, 1.263, 1.265))
    ),
    Row("Fig. 12", "share SIMD exe units", 0.46, _area_share("simd_exe_units"),
        ".0%", ANALYTICAL),
    Row("Fig. 12", "share LSU", 0.23, _area_share("lsu"), ".0%", ANALYTICAL),
    Row("Fig. 12", "share register file", 0.15, _area_share("register_file"),
        ".0%", ANALYTICAL),
    Row("Fig. 12", "share Manager", Bound("<", 0.01), _area_share("manager"),
        ".1%", ANALYTICAL),
    Row("Fig. 12", "control logic per core, 4 vs 2 cores", 1.03, _control_growth,
        ".2f", ANALYTICAL),
    Row("Fig. 12", "4-core fts overhead", 0.335, lambda _m: fts_area_overhead(),
        "+.1%", ANALYTICAL),
    # -- Fig. 13: cycles stalled waiting for a free register -------------------
    Row("Fig. 13", "GM fts stalls (worst core)", Bound(">", 0.70),
        lambda m: gm_fts_rename_stalls(m.pairs), ".0%",
        note="fewer stalls than the paper's FTS, yet ours is the FTS that loses "
        "(Fig. 2 sp1 fts); ROADMAP 2(b) suspects the freelist's "
        "SHARED_MIN_RESERVE cap", upto=0.40),
    Row("Fig. 13", "worst stalls, private/vls/occamy", Bound("<", 0.01),
        _spatial_rename_stalls, ".0%"),
    # -- Fig. 14: case study WL20 (sff2+sff5) + WL17 (wsm52) -------------------
    Row("Fig. 14(a)", "WL20.p1 knee (lanes)", 8,
        lambda m: _knee(m.fig14.normalized_times(0)), ".0f", EXACT),
    Row("Fig. 14(a)", "WL20.p2 knee (lanes)", 12,
        lambda m: _knee(m.fig14.normalized_times(1)), ".0f", EXACT, _SFF5_AT_8, 8),
    Row("Fig. 14(a)", "WL17 time at 28 lanes / at 4" + _OUR_BOUND, Bound("<", 0.45),
        lambda m: m.fig14.normalized_compute_times()[28], tolerance=EXACT),
    Row("Fig. 14(b)", "WL17 lanes beside WL20.p1", 24,
        lambda m: m.fig14.lane_timeline("occamy", 1)[0][1], ".0f", EXACT),
    Row("Fig. 14(b)", "WL17 lanes after WL20", 32,
        lambda m: max(lanes for _cycle, lanes in m.fig14.lane_timeline("occamy", 1)),
        ".0f", EXACT),
    Row("Fig. 14(c)", "WL20.p1 issue rate, occamy / private", 1.88 / 0.96,
        lambda m: m.fig14.issue_rates("occamy", 0)[0] / m.fig14.issue_rates("private", 0)[0]),
    Row("Fig. 14(c)", "WL17 rename stalls, occamy", Bound("<", 0.01),
        lambda m: _fig14_rename_stalls(m, "occamy"), ".0%"),
    Row("Fig. 14(c)", "WL17 rename stalls, fts" + _OUR_BOUND, Bound(">", 0.05),
        lambda m: _fig14_rename_stalls(m, "fts"), ".0%", EXACT),
    # -- Fig. 15: EM-SIMD runtime overhead under Occamy ------------------------
    *(
        Row("Fig. 15", f"GM overhead, {part}", paper,
            lambda m, part=part: geomean(_overheads(m, part)), ".1%",
            note=_PHASES_SHORT, upto=0.03)
        for part, paper in (("total", 0.005), ("monitor", 0.003), ("reconfig", 0.002))
    ),
    Row("Fig. 15", "worst pair's overhead, total" + _OUR_BOUND, Bound("<", 0.09),
        lambda m: max(_overheads(m, "total")), ".1%", EXACT),
    # -- Fig. 16: four cores, four groups --------------------------------------
    Row("Fig. 16", "best GM speedup, Core2/3", Best("occamy"),
        lambda m: _fig16_gm(m, (2, 3)), tolerance=EXACT),
    Row("Fig. 16", "GM speedup occamy, Core2/3" + _OUR_BOUND, Bound(">", 1.1),
        lambda m: _fig16_gm(m, (2, 3))["occamy"], tolerance=EXACT),
    Row("Fig. 16", "GM speedup occamy, Core0/1", 1.00,
        lambda m: _fig16_gm(m, (0, 1))["occamy"]),
    # -- Table 3 / Table 5 -----------------------------------------------------
    Row("Table 3", "oi_mem ours / paper, worst of 34 workloads' phases", 1.00,
        _table3_worst_ratio, ".2f", TABLE3),
    *(
        Row("Table 5", quantity, paper,
            lambda _m, vl=vl, column=column: _table5(vl, column), ".1f", ANALYTICAL)
        for quantity, paper, vl, column in (
            ("issue bound @ VL=4 (GFLOP/s)", 5.3, 4, "simd_issue_bound"),
            ("issue bound @ VL=32", 42.7, 32, "simd_issue_bound"),
            ("memory bound", 16.0, 32, "mem_bound"),
            ("computation bound @ VL=32", 64.0, 32, "comp_bound"),
            ("performance @ VL=4", 5.3, 4, "performance"),
            ("performance @ VL=8", 10.7, 8, "performance"),
            ("performance @ VL=12", 16.0, 12, "performance"),
            ("performance @ VL=32", 16.0, 32, "performance"),
        )
    ),
    # -- §7.4 Cases 2-4 (Case 1 is Fig. 14) ------------------------------------
    *(
        Row("§7.4 Case 2", f"survivor's speedup, {key}", paper,
            lambda m, key=key: max(m.pair(9, 13).speedup(key, core) for core in (0, 1)),
            note=note, upto=upto)
        for key, paper, note, upto in (
            ("occamy", 1.61, "here WL13 finishes first and WL9 inherits its lanes for "
             "the last third of its run; in the paper WL13 is the survivor", 1.1),
            ("fts", 1.61, "as the Occamy row: WL9 is the survivor here, for a shorter "
             "tail", 1.1),
            ("vls", 1.00, "", None),
        )
    ),
    *(
        Row("§7.4 Case 2", f"occamy at least vls, Core{core}", Best("occamy"),
            lambda m, core=core: {
                key: m.pair(9, 13).speedup(key, core) for key in ("occamy", "vls")
            }, tolerance=0.05)
        for core in (0, 1)
    ),
    Row("§7.4 Case 3", "speedup furthest from 1, fts/vls/occamy x 2 cores", 1.00,
        lambda m: max(
            (m.pair(12, 19).speedup(key, core) for key in SHARING for core in (0, 1)),
            key=lambda speedup: abs(speedup - 1)),
        note="WL19 (rho_eos2) is the outlier: faster under VLS/Occamy, which hold "
        "its co-runner WL12 to 8 lanes where Private gives it 16", upto=1.35),
    Row("§7.4 Case 4", "WL8.p1 lanes under occamy", 12, _case4_first_grant, ".0f", EXACT),
    Row("§7.4 Case 4", "sp0 occamy", 1.00, lambda m: m.pair(8, 17).speedup("occamy", 0)),
    Row("§7.4 Case 4", "sp1 occamy", 1.41, lambda m: m.pair(8, 17).speedup("occamy", 1)),
    Row("§7.4 Case 4", "sp1 fts", 1.52, lambda m: m.pair(8, 17).speedup("fts", 1),
        note=_FTS_WEAK, upto=0.8),
    Row("§7.4 Case 4", "sp1 fts / sp1 occamy", 1.52 / 1.41,
        lambda m: m.pair(8, 17).speedup("fts", 1) / m.pair(8, 17).speedup("occamy", 1),
        note="in the paper FTS edges out Occamy here; ours cannot (sp1 fts row)",
        upto=0.6),
)


def _ours(artefact: str, quantity: str, bound: Union[Bound, Best],
          ours: Callable[[Measured], Measurement], fmt: str = ".2f") -> Row:
    """A claim beyond the paper: our bound or ordering, no slack, no note."""
    return Row(artefact, quantity + _OUR_BOUND, bound, ours, fmt, EXACT)


BEYOND: Tuple[Row, ...] = (
    # -- §8's coarse-grained temporal sharing (Beldianu & Ziavras), Fig. 2 pair
    _ours("CTS baseline", "worst-core rename stalls, cts", Bound("<", 0.02),
          lambda m: _worst_rename_stalls(m, "cts"), ".0%"),
    _ours("CTS baseline", "worst-core rename stalls, fts", Bound(">", 0.30),
          lambda m: _worst_rename_stalls(m, "fts"), ".0%"),
    _ours("CTS baseline", "best sp1, occamy/fts/cts", Best("occamy"),
          lambda m: {key: m.fig2.speedup(key, 1) for key in ("occamy", "fts", "cts")}),
    # -- §4's LaneMgr, one ingredient off at a time, Fig. 2 pair ---------------
    _ours("LaneMgr ablations", "sp0 occamy", Bound(">", 0.95),
          lambda m: m.fig2.speedup("occamy", 0)),
    # Without Eq. 2's issue ceiling the memory core is under-allocated (Case 4).
    _ours("LaneMgr ablations", "sp0 no-issue-ceiling", Bound("<", 0.90),
          lambda m: m.fig2.speedup("no-issue-ceiling", 0)),
    _ours("LaneMgr ablations", "best sp1, occamy vs equal-split", Best("occamy"),
          lambda m: {key: m.fig2.speedup(key, 1) for key in ("occamy", "equal-split")}),
    _ours("LaneMgr ablations", "highest util, occamy vs private/equal-split/no-issue-ceiling",
          Best("occamy"),
          lambda m: {key: m.fig2.utilization(key)
                     for key in ("private", "occamy", "equal-split", "no-issue-ceiling")},
          ".1%"),
    # WL13 is Vec-Cache resident: a DRAM-only roofline caps it at ~18 lanes.
    _ours("LaneMgr ablations", "spec:1+13 best sp1, occamy vs flat-memory", Best("occamy"),
          lambda m: {key: m.spec_1_13.speedup(key, 1) for key in ("occamy", "flat-memory")}),
    _ours("LaneMgr ablations", "spec:1+13 most Core1 lanes, occamy vs flat-memory",
          Best("occamy"),
          lambda m: {key: _core1_peak_lanes(m, key) for key in ("occamy", "flat-memory")},
          ".0f"),
    # -- one machine parameter at a time, Occamy over Private, Fig. 2 pair -----
    _ours("Sensitivity", "best sp1, 64 vs 16 lanes", Best("64 lanes"),
          lambda m: {f"{p.value} lanes": p.compute_speedup
                     for p in m.sensitivity["total_lanes"] if p.value in (16, 64)}),
    _ours("Sensitivity", "lowest sp0, every sweep point", Bound(">", 0.80),
          lambda m: _sensitivity_low(m, "memory_speedup"), ".3f"),
    _ours("Sensitivity", "lowest sp1, every sweep point", Bound(">", 0.90),
          lambda m: _sensitivity_low(m, "compute_speedup")),
    # -- Eq. 4 vs the machine, solo at 2-32 fixed lanes ------------------------
    # The sweep's top is 32 lanes, so "at least 32" is "still gaining at 32".
    _ours("Roofline model", "wsm52 predicted knee (lanes)", Bound(">", 32),
          lambda m: m.roofline["wsm52"].predicted_knee, ".0f"),
    _ours("Roofline model", "wsm52 measured knee (lanes)", Bound(">", 24),
          lambda m: m.roofline["wsm52"].measured_knee, ".0f"),
    _ours("Roofline model", "sff2 predicted knee (lanes)", Bound("<", 8),
          lambda m: m.roofline["sff2"].predicted_knee, ".0f"),
    _ours("Roofline model", "sff2 measured knee (lanes)", Bound("<", 16),
          lambda m: m.roofline["sff2"].measured_knee, ".0f"),
    _ours("Roofline model", "lowest ordering agreement, wsm52/sff2/rho_eos2",
          Bound(">", 0.70),
          lambda m: min(v.ordering_agreement for v in m.roofline.values()), ".0%"),
    # -- the ECM cycle predictor (arXiv 1509.03118) vs Table 3 solo runs -------
    _ours("ECM model", "geomean cycle error, occamy/fts/cts", Bound("<", 0.35),
          lambda m: m.ecm.geomean_error, ".1%"),
    _ours("ECM model", "worst cycle error, occamy/fts/cts", Bound("<", 0.70),
          lambda m: m.ecm.max_error, ".1%"),
)

ROWS: Tuple[Row, ...] = PAPER + BEYOND

#: ``ROW["Fig. 10", "GM sp1 occamy"]``: where ``repro report`` reads its
#: paper columns.
ROW = {(r.artefact, r.quantity): r for r in ROWS}


def fidelity_rows(scale: float = CALIBRATED_SCALE, jobs: Jobs = None) -> List[Judged]:
    """Measure and judge every row at ``scale``.  The paper's take 138 cached
    simulations (Fig. 2, 25 pairs x 4, Fig. 14's 14 solo + 4 co-runs,
    Fig. 16); the sweeps beyond it, each at no more than the scale its
    claim was made at (:data:`SWEEP_SCALES`), 98 more at scale 0.5."""
    # Here, not above: a warm ``repro report`` reads ROW and loads none of them
    # (``policy`` resolves an ablation key by importing ``core.ablations``).
    from repro.analysis.sensitivity import SWEEPS, sweep
    from repro.analysis.validation import validate_ecm, validate_phase
    from repro.core.policies import policy

    capped = {sweep_name: min(scale, cap) for sweep_name, cap in SWEEP_SCALES.items()}
    (motivating,) = run_grid(
        [{"kind": "motivate"}], POLICIES + VARIANTS, scale, experiment_config(), jobs
    )
    measured = Measured(
        fig2=MotivationResult(results=motivating),
        pairs=sweep_pairs(scale=scale, jobs=jobs),
        fig14=case_study_fig14(scale=scale, jobs=jobs),
        fig16=four_core_fig16(scale=scale, jobs=jobs),
        spec_1_13=pair_outcome(
            CoRunPair("spec", 1, 13), scale,
            policies=[policy(key) for key in ("private", "occamy", "flat-memory")], jobs=jobs,
        ),
        sensitivity={
            name: sweep(name, scale=capped["sensitivity"], jobs=jobs) for name in SWEEPS
        },
        roofline={
            name: validate_phase(spec_workload(workload, scale=capped["roofline"]), jobs=jobs)
            for name, workload in ROOFLINE_PHASES.items()
        },
        ecm=validate_ecm(scale=capped["ECM"], jobs=jobs),
    )
    return [r.judge(r.ours(measured)) for r in ROWS]


def render(results: Sequence[Judged], scale: float) -> str:
    """``repro fidelity``'s output: what is counted and how, then the table."""
    paper = [judged for judged in results if judged.row in PAPER]
    beyond = [judged for judged in results if judged.row in BEYOND]

    def counts(section: Sequence[Judged]) -> str:
        tally = Counter(judged.status for judged in section)
        return ", ".join(f"{tally[s]} {s}" for s in (PASS, KNOWN_DELTA, FAIL, STALE_NOTE))

    return "\n".join(
        [
            "### What is measured",
            "",
            f"- **Rows**: the {len(paper)} headline numbers of the paper's "
            f"evaluation, then the {len(beyond)} claims this repository makes "
            "beyond it (the LaneMgr ablations, the CTS baseline, sensitivity, "
            "the roofline and ECM models), from "
            "`repro.analysis.fidelity.ROWS` — nothing here is typed by hand.",
            f"- **Ours**: `python -m repro fidelity --scale {scale:g}` on "
            "`experiment_config()` (Table 4 timing and widths, caches shrunk "
            "in proportion — DESIGN.md §2); Fig. 12, Table 3 and Table 5 are "
            "analytical and use `table4_config()`.",
            "- **Simulated rows are end-to-end co-runs**: cycles from the "
            "first instruction to each core's own last one, prologues, "
            "reconfigurations and drain included — not steady-state loop "
            "rates.  A speedup is Private's core time over the policy's; "
            "utilisation is busy lane-cycles over all lane-cycles of the "
            "whole run; GM is the geometric mean over the 25 pairs.",
            "- **Error** is relative to the paper's figure; for a bound or an "
            "ordering it is the fraction by which ours falls short (0 when it "
            "holds; a bound holds at its own value).  A quantity marked *(our "
            "bound)* is one the paper states in words only, or not at all; the "
            "bound is this repository's.",
            "- **Status**: PASS = inside the tolerance; KNOWN-DELTA = outside "
            "it, the note says why (a calibration bug to fix, not a shape "
            "caveat — ROADMAP item 2(b)) and ours lies between the paper's "
            "figure and the *known delta* the note accounts for; FAIL = "
            "outside with no reason, or further than that; STALE-NOTE = inside "
            "although a reason is still stated.  The last two make the command "
            "exit 1.",
            f"- **Scale**: notes and known deltas are calibrated at scale "
            f"{CALIBRATED_SCALE:g}, the one CI and `benchmarks/"
            "test_paper_fidelity.py` gate on; at another scale a row may FAIL.  "
            "Beyond the paper, each sweep runs at no more than the scale its claim "
            "was made at: "
            + ", ".join(f"{name} {cap:g}" for name, cap in SWEEP_SCALES.items())
            + ".",
            "",
            f"### Paper vs ours ({counts(paper)}), then beyond the paper "
            f"({counts(beyond)})",
            "",
            md_table(COLUMNS, [judged.cells() for judged in results]),
        ]
    )
