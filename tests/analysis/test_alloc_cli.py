"""CLI input validation, and the commands and flags that are gone."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


#: Each bad input and the value its error line must name.
BAD_INPUTS = [
    (["motivate", "--cores", "4x"], "'4x'"),
    (["motivate", "--cores", "4", "4"], "duplicate core count 4"),
    (["motivate", "--cores", "-4"], "got -4"),
    (["motivate", "--cores", "0"], "got 0"),
    (["motivate", "--cores", "two"], "'two'"),
    (["diff-fuzz", "--seeds", "1", "--cores", "junk"], "'junk'"),
    (["pair", "spec", "1", "13", "--scale", "0"], "'0'"),
    (["motivate", "--scale", "-1"], "'-1'"),
    (["fidelity", "--scale", "0"], "'0'"),
    (["report", "r.md", "--scale", "nan"], "'nan'"),
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
    (["diff-fuzz", "--seeds", "0"], "--seeds: must be an integer >= 1, got '0'"),
    (["diff-fuzz", "--seeds", "-3"], "--seeds: must be an integer >= 1, got '-3'"),
    (["diff-fuzz", "--shrink-limit", "-1"],
     "--shrink-limit: must be an integer >= 0, got '-1'"),
    (["diff-fuzz", "--shrink-limit", "x"], "--shrink-limit: must be an integer >= 0, got 'x'"),
    (["area", "--cores", "0"], "--cores: must be an integer >= 1, got '0'"),
    (["area", "--cores", "-3"], "--cores: must be an integer >= 1, got '-3'"),
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
        ("diff-fuzz", "alloc"),
    ],
)
def test_removed_flags_exit_2(command, flag, capsys):
    """Gone, not accepted and ignored: each table has one command."""
    assert _exit_code([command, f"--{flag}"]) == 2
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err


def test_removed_figures_command_exits_2(capsys):
    assert _exit_code(["figures", "out"]) == 2
    assert "invalid choice: 'figures'" in capsys.readouterr().err


def test_removed_alloc_sweep_command_exits_2(capsys):
    assert _exit_code(["alloc-sweep", "--cores", "16"]) == 2
    assert "invalid choice: 'alloc-sweep'" in capsys.readouterr().err


def test_diff_fuzz_counts_at_their_floor_parse():
    args = build_parser().parse_args(["diff-fuzz", "--seeds", "1", "--shrink-limit", "0"])
    assert (args.seeds, args.shrink_limit) == (1, 0)


def _exit_code(argv):
    """``main``'s return code, or argparse's exit status."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
