"""Trace export, Gantt rendering and the CLI."""

import json

import pytest

from repro import OCCAMY, run_policy
from repro.analysis.trace import export_trace, phase_gantt, trace_dict
from repro.cli import build_parser, main
from tests.conftest import compiled_job, make_two_phase


@pytest.fixture(scope="module")
def sample_result():
    from repro import experiment_config

    kernel = make_two_phase()
    return run_policy(experiment_config(), OCCAMY, [compiled_job(kernel), None])


class TestTrace:
    def test_trace_dict_structure(self, sample_result):
        data = trace_dict(sample_result)
        assert data["policy"] == "occamy"
        assert data["total_cycles"] > 0
        assert len(data["lane_timelines"]) == 2
        assert len(data["phases"]) == 2
        for phase in data["phases"]:
            assert {"core", "oi_issue", "oi_mem", "start", "end"} <= set(phase)

    def test_trace_is_json_serialisable(self, sample_result, tmp_path):
        path = tmp_path / "trace.json"
        export_trace(sample_result, str(path))
        data = json.loads(path.read_text())
        assert data["total_cycles"] == sample_result.total_cycles

    def test_gantt_renders_each_phase(self, sample_result):
        chart = phase_gantt(sample_result)
        assert chart.count("core0") == 2
        assert "#" in chart
        assert "lanes@start=" in chart

    def test_gantt_reports_nonzero_lane_grants(self, sample_result):
        chart = phase_gantt(sample_result)
        assert "lanes@start=0 " not in chart


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["pair", "spec", "20", "17", "--scale", "0.1"])
        assert args.suite == "spec"
        assert args.mem == 20

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_table5_command(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "IssueBound" in out
        assert "42.7" in out

    def test_area_command(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "occamy" in out

    def test_roofline_command(self, capsys):
        assert main(["roofline", "0.1667", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "saturation: 12 lanes" in out

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["0.1667", "-0.5"], "argument oi_mem: must be a number >= 0, got '-0.5'"),
            (["nan", "0.25"], "argument oi_issue: must be a number >= 0, got 'nan'"),
            (["x", "0.25"], "argument oi_issue: must be"),
        ],
    )
    def test_roofline_rejects_negative_and_nan_intensities(self, capsys, argv, named):
        with pytest.raises(SystemExit) as excinfo:
            main(["roofline", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr()
        assert named in err.err and "saturation" not in err.out

    def test_roofline_accepts_an_infinite_intensity(self, capsys):
        """A phase that moves no bytes has an infinite intensity."""
        assert main(["roofline", "inf", "0.25"]) == 0
        assert "saturation:" in capsys.readouterr().out

    def test_trace_command(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["trace", "spec", "20", "17", str(path), "--scale", "0.05"]) == 0
        assert path.exists()
        assert "policy=occamy" in capsys.readouterr().out
