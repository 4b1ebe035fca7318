"""The ``repro alloc-sweep`` subcommand and --cores validation."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main

SCALE = "0.05"


def test_alloc_sweep_report_fingerprints_are_placement_invariant(tmp_path, capsys):
    """The CI smoke's identity assertion: the same pair label carries the
    same run-fingerprint digest no matter which policy placed it."""
    report = tmp_path / "alloc.json"
    code = main(
        [
            "alloc-sweep",
            "--cores", "4",
            "--alloc", "random,round-robin,oi-balance,oi-pack",
            "--scale", SCALE,
            "--report", str(report),
        ]
    )
    assert code == 0
    payload = json.loads(report.read_text())
    by_label = {}
    for entry in payload["sweep"]:
        assert entry["num_cores"] == 4
        assert entry["geomean_cycles"] > 0
        for pair in entry["pairs"]:
            seen = by_label.setdefault(pair["label"], pair["fingerprint"])
            assert seen == pair["fingerprint"], (
                f"pair {pair['label']} diverged across placements"
            )
    assert len(by_label) > 2
    out = capsys.readouterr().out
    assert "alloc=oi-pack" in out
    assert "per-thread geomean" in out


def test_alloc_sweep_rejects_unknown_policy(capsys):
    assert main(["alloc-sweep", "--cores", "4", "--alloc", "nope",
                 "--scale", SCALE]) == 2
    assert "nope" in capsys.readouterr().err


#: Each bad input and the value its error line must name.
BAD_INPUTS = [
    (["alloc-sweep", "--cores", "4x"], "'4x'"),
    (["alloc-sweep", "--cores", "4", "4"], "duplicate core count 4"),
    (["alloc-sweep", "--cores", "-4"], "got -4"),
    (["motivate", "--cores", "0"], "got 0"),
    (["motivate", "--cores", "two"], "'two'"),
    (["diff-fuzz", "--seeds", "1", "--cores", "junk"], "'junk'"),
    (["pair", "spec", "1", "13", "--scale", "0"], "'0'"),
    (["motivate", "--scale", "-1"], "'-1'"),
    (["fidelity", "--scale", "0"], "'0'"),
    (["alloc-sweep", "--scale", "nan"], "'nan'"),
    (["perf-report", "--scale", "inf"], "'inf'"),
    (["report", "r.md", "--pairs", "-1"], "'-1'"),
    (["report", "r.md", "--pairs", "0"], "'0'"),
    (["cache", "--cache-dir", "{tmp}", "prune", "--max-bytes", "-5"], "-5"),
    (["pair", "spec", "99", "1"], "workload 99"),
    (["pair", "opencv", "1", "99"], "workload 99"),
    (["trace", "spec", "99", "1", "{tmp}/t.json"], "workload 99"),
    (["perf-report", "--workloads", "99"], "workload 99"),
    (["perf-report", "--workloads", "17,x"], "'17,x'"),
    (["perf-report", "--policies", "nope"], "'nope'"),
]


@pytest.mark.parametrize(
    "argv, bad", BAD_INPUTS, ids=[f"argv{i}" for i in range(len(BAD_INPUTS))]
)
def test_bad_cores_values_exit_2_naming_the_value(argv, bad, tmp_path, capsys):
    argv = [token.replace("{tmp}", str(tmp_path)) for token in argv]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    # Ours print "error: ..."; argparse's type= checks "repro <cmd>: error: ...".
    assert re.search(r"^(repro[\w -]*: )?error: .*" + re.escape(bad), err, re.M), err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("perf-report", "bench-dir"),
        ("perf-report", "cores"),
        ("perf-report", "alloc-cores"),
        ("perf-report", "skip-validation"),
        ("motivate", "alloc"),
        ("motivate", "calibrate"),
    ],
)
def test_removed_flags_exit_2(command, flag, capsys):
    """Gone, not accepted and ignored: each table has one command."""
    assert _exit_code([command, f"--{flag}"]) == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_removed_figures_command_exits_2(capsys):
    assert _exit_code(["figures", "out"]) == 2
    assert "invalid choice: 'figures'" in capsys.readouterr().err


def _exit_code(argv):
    """``main``'s return code, or argparse's exit status."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
