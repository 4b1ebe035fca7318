"""The fidelity table's own logic — judged on hand-made measurements, so
nothing here simulates except the one cached-and-parallel check at the end."""

import ast
from pathlib import Path

import pytest

from repro.analysis import experiments, fidelity, parallel, report, result_cache
from repro.analysis.fidelity import (
    BEYOND,
    EXACT,
    FAIL,
    KNOWN_DELTA,
    PASS,
    ROW,
    ROWS,
    STALE_NOTE,
    Best,
    Bound,
    Row,
)
from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
BEGIN, END = "<!-- fidelity:begin -->", "<!-- fidelity:end -->"


def _status(paper, ours, tolerance, note="", upto=None):
    row = Row("Fig. 0", "made up", paper, lambda _m: ours, ".2f", tolerance, note, upto)
    return row.judge(ours).status


# Binary-exact fractions, so "at the tolerance" is at it and not an ulp off.
# ``reach`` is as far as a note goes; ``beyond`` is past it.
@pytest.mark.parametrize(
    "paper, inside, at, outside, reach, beyond",
    [
        (2.0, 2.4375, 2.5, 2.5625, 3.0, 3.0625),  # a number, from above
        (2.0, 1.5625, 1.5, 1.4375, 1.0, 0.9375),  # ... and from below
        (Bound(">", 2.0), 1.5625, 1.5, 1.4375, 1.0, 0.9375),  # a lower bound
        (Bound("<", 2.0), 2.4375, 2.5, 2.5625, 3.0, 3.0625),  # an upper bound
    ],
    ids=["number-above", "number-below", "at-least", "at-most"],
)
def test_status_around_the_tolerance(paper, inside, at, outside, reach, beyond):
    for ours in (inside, at):
        assert _status(paper, ours, 0.25) == PASS
        assert _status(paper, ours, 0.25, "no longer true", reach) == STALE_NOTE
    for ours in (outside, reach, beyond):
        assert _status(paper, ours, 0.25) == FAIL
    for ours in (outside, reach):
        assert _status(paper, ours, 0.25, "a stated reason", reach) == KNOWN_DELTA
    # A reason accounts for a delta, not for any delta: past its reach, or
    # as far off on the other side of the paper's figure, the row fails.
    assert _status(paper, beyond, 0.25, "a stated reason", reach) == FAIL
    if not isinstance(paper, Bound):
        assert _status(paper, 2 * 2.0 - outside, 0.25, "a stated reason", reach) == FAIL


def test_an_ordering_around_the_tolerance():
    inside, at, outside = ({"a": a, "b": 4.0} for a in (3.0625, 3.0, 2.9375))
    for ours in (inside, at):
        assert _status(Best("a"), ours, 0.25) == PASS
    assert _status(Best("a"), outside, 0.25) == FAIL
    assert _status(Best("a"), {"a": 3.9375, "b": 4.0}, EXACT) == FAIL


def test_the_floors_of_the_deleted_benchmarks_still_fail():
    """A KNOWN-DELTA row is not a free pass, and "best" means best."""
    for name, known, failing in [
        (("Fig. 2", "sp1 fts"), 1.03, 0.99),  # fig02: sp1 fts > 1.0
        (("Fig. 10", "GM sp1 occamy"), 1.55, 1.14),  # fig10: GM > 1.15
        (("Fig. 13", "GM fts stalls (worst core)"), 0.46, 0.0),  # fig13: > 0.4
        (("Fig. 15", "GM overhead, total"), 0.024, 0.5),  # fig15: < 0.03
        (("§7.4 Case 3", "speedup furthest from 1, fts/vls/occamy x 2 cores"), 1.31, 1.36),
        (("§7.4 Case 3", "speedup furthest from 1, fts/vls/occamy x 2 cores"), 1.31, 0.74),
    ]:
        assert ROW[name].judge(known).status == KNOWN_DELTA, name
        assert ROW[name].judge(failing).status == FAIL, name
    for name, passing, failing in [
        (("Fig. 14(a)", "WL17 time at 28 lanes / at 4 (our bound)"), 0.16, 0.46),
        (("Fig. 15", "worst pair's overhead, total (our bound)"), 0.061, 0.091),
        (("Fig. 16", "GM speedup occamy, Core2/3 (our bound)"), 1.17, 1.09),
        (("Fig. 14(c)", "WL17 rename stalls, fts (our bound)"), 0.60, 0.04),
        (("Fig. 10", "best GM sp1"), {"occamy": 1.55, "vls": 1.45}, {"occamy": 1.44, "vls": 1.45}),
        (("Fig. 16", "best GM speedup, Core2/3"), {"occamy": 1.17, "vls": 1.1},
         {"occamy": 1.09, "vls": 1.1}),
    ]:
        assert ROW[name].judge(passing).status == PASS, name
        assert ROW[name].judge(failing).status == FAIL, name


def test_the_asserts_of_the_folded_benchmarks_still_fail():
    """Each assert of the beyond-the-paper benchmark modules is a row: the
    value they printed passes it, one they rejected fails it."""
    for quantity, passing, failing in [
        # temporal baselines: CTS stalls < 2 %, FTS > 30 %, Occamy beats both
        ("worst-core rename stalls, cts", 0.0, 0.03),
        ("worst-core rename stalls, fts", 0.59, 0.29),
        ("best sp1, occamy/fts/cts", {"occamy": 1.78, "fts": 1.03, "cts": 1.08},
         {"occamy": 1.07, "fts": 1.03, "cts": 1.08}),
        # ablations: sp0 > 0.95, no-issue-ceiling sp0 < 0.9, full beats the rest
        ("sp0 occamy", 1.01, 0.94),
        ("sp0 no-issue-ceiling", 0.72, 0.91),
        ("best sp1, occamy vs equal-split", {"occamy": 1.78, "equal-split": 1.14},
         {"occamy": 1.13, "equal-split": 1.14}),
        ("highest util, occamy vs private/equal-split/no-issue-ceiling",
         {"private": 0.237, "occamy": 0.328, "equal-split": 0.271, "no-issue-ceiling": 0.235},
         {"private": 0.237, "occamy": 0.27, "equal-split": 0.271, "no-issue-ceiling": 0.235}),
        ("spec:1+13 best sp1, occamy vs flat-memory", {"occamy": 1.48, "flat-memory": 1.10},
         {"occamy": 1.09, "flat-memory": 1.10}),
        ("spec:1+13 most Core1 lanes, occamy vs flat-memory", {"occamy": 24, "flat-memory": 18},
         {"occamy": 16, "flat-memory": 18}),
        # sensitivity: lanes[64] > lanes[16], sp0 > 0.8 and sp1 > 0.9 everywhere
        ("best sp1, 64 vs 16 lanes", {"64 lanes": 2.98, "16 lanes": 1.14},
         {"64 lanes": 1.10, "16 lanes": 1.14}),
        ("lowest sp0, every sweep point", 0.801, 0.79),
        ("lowest sp1, every sweep point", 1.11, 0.89),
        # model validation: the knees, the ordering, the ECM error
        ("wsm52 predicted knee (lanes)", 32, 24),
        ("wsm52 measured knee (lanes)", 32, 16),
        ("sff2 predicted knee (lanes)", 8, 16),
        ("sff2 measured knee (lanes)", 16, 24),
        ("lowest ordering agreement, wsm52/sff2/rho_eos2", 1.0, 0.69),
        ("geomean cycle error, occamy/fts/cts", 0.067, 0.36),
        ("worst cycle error, occamy/fts/cts", 0.171, 0.71),
    ]:
        (row,) = [row for row in BEYOND if row.quantity == quantity + " (our bound)"]
        assert row.judge(passing).status == PASS, quantity
        assert row.judge(failing).status == FAIL, quantity


def test_a_bound_or_an_ordering_that_holds_has_no_error():
    assert fidelity.relative_error(Bound(">", 0.7), 0.9) == 0
    assert fidelity.relative_error(Bound("<", 0.01), 0.0) == 0
    assert fidelity.relative_error(Best("occamy"), {"occamy": 1.5, "vls": 1.5, "fts": 1.1}) == 0
    assert fidelity.relative_error(Best("fts"), {"fts": 0.6, "occamy": 0.0}) == 0
    assert _status(Best("occamy"), {"occamy": 1.0, "vls": 1.0}, 0.0) == PASS


def test_rows_are_uniquely_named_and_their_reasons_are_prose():
    names = [(row.artefact, row.quantity) for row in ROWS]
    assert len(set(names)) == len(names)
    assert ROW["Fig. 10", "GM sp1 occamy"].paper_text == "1.39"
    for row in ROWS:
        assert 0 <= row.tolerance <= fidelity.TABLE3
        # A reason says how far it reaches; an ordering takes neither and,
        # but for §7.4 Case 2's "at least" (the old module's 0.05), no slack.
        assert bool(row.note) == (row.upto is not None), row
        if isinstance(row.paper, Best):
            assert not row.note, row
            assert row.tolerance == (0.05 if row.artefact == "§7.4 Case 2" else EXACT), row
        # A reason is a sentence, on one line of a Markdown table.
        assert not row.note or len(row.note.split()) >= 5, row
        assert not set("|\n") & set(row.note + row.quantity), row
    # Beyond the paper every bound is ours, exact, and has nothing to excuse.
    assert BEYOND and ROWS[-len(BEYOND):] == BEYOND
    for row in BEYOND:
        assert row.quantity.endswith(" (our bound)"), row
        assert isinstance(row.paper, (Bound, Best)), row
        assert not row.note and row.upto is None, row
        assert row.tolerance == EXACT, row


def test_analytical_rows_pass_without_a_simulation():
    """Fig. 12, Table 3 and Table 5 are the paper's own models: inside 1 %
    (Table 3: 16 %) with nothing to explain, and they read no driver."""
    analytical = [row for row in ROWS if row.artefact in ("Fig. 12", "Table 3", "Table 5")]
    assert len(analytical) == 19
    for row in analytical:
        judged = row.judge(row.ours(None))
        assert judged.status == PASS, judged.cells()


def test_experiments_md_carries_the_table():
    """One line per row between the markers, and every cell that is data
    (not a measurement) is the table's; CI diffs the ``ours`` cells."""
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    block = text.partition(BEGIN)[2].partition(END)[0]
    lines = [line for line in block.splitlines() if line.startswith("| ")][1:]
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    expected = [
        [row.artefact, row.quantity, row.paper_text, f"{row.tolerance:.0%}",
         row.upto_text, row.note]
        for row in ROWS
    ]
    assert [[c[0], c[1], c[2], c[5], c[7], c[8]] for c in cells] == expected
    statuses = {c[6] for c in cells}
    assert statuses == {PASS, KNOWN_DELTA}
    assert all((c[6] == KNOWN_DELTA) == bool(c[8]) for c in cells)


def test_report_types_no_paper_number():
    """``repro report`` reads its paper columns from the table: no float
    literal in ``report.py`` is a value the table holds."""
    paper_values = {
        float(row.paper_value) for row in ROWS if not isinstance(row.paper, Best)
    }
    tree = ast.parse(Path(report.__file__).read_text(encoding="utf-8"))
    literals = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
    }
    assert literals and not literals & paper_values


def test_fidelity_is_cached_and_parallel(tmp_path, monkeypatch, capsys):
    """230 simulations on a pool of two (the paper's 138, then the sweeps
    beyond it); a second, serial run in a process that remembers nothing
    executes none, stores none and prints the same."""
    monkeypatch.setenv(result_cache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv(result_cache.NO_CACHE_ENV, raising=False)
    cache = result_cache.default_cache()

    experiments._sweep_cache.clear()
    main(["fidelity", "--scale", "0.05", "--jobs", "2"])
    cold = capsys.readouterr().out
    assert cold.count("\n| ") == len(ROWS) + 1  # the header row
    assert len(cache) == 230

    executed = []
    monkeypatch.setattr(parallel, "execute_task", executed.append)
    experiments._sweep_cache.clear()
    main(["fidelity", "--scale", "0.05", "--jobs", "1"])
    assert capsys.readouterr().out == cold
    assert not executed
    assert len(cache) == 230
    experiments._sweep_cache.clear()
