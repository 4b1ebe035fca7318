"""The auto-generated perf report (``repro perf-report``)."""

import pytest

from repro.analysis.perf_report import (
    ECM_GATE_ROW,
    generate_perf_report,
    render_report,
)
from repro.analysis.validation import validate_ecm
from repro.cli import main
from repro.common.errors import ConfigurationError

#: One workload, one policy: a single short simulation.
SMALL = ["--scale", "0.05", "--workloads", "17", "--policies", "occamy"]


@pytest.fixture(scope="module")
def validation():
    return validate_ecm(workload_ids=[17], policies=("occamy",), scale=0.05)


class TestRender:
    def test_markdown_tables_well_formed(self, validation):
        text = render_report(validation)
        assert text.startswith("# Performance report")
        assert "docs/perf-model.md" in text
        for line in text.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")


class TestValidationSection:
    def test_per_workload_error_table(self, validation):
        text = render_report(validation)
        assert "## ECM model vs simulator" in text
        assert "| WL17 | occamy |" in text
        assert "Geomean relative cycle error" in text
        assert f"{100 * ECM_GATE_ROW.paper_value:.0f}%" in text

    def test_gate_verdict_rendered(self, validation):
        text = render_report(validation)
        verdict = "PASS" if validation.geomean_error <= ECM_GATE_ROW.paper_value else "FAIL"
        assert verdict in text

    def test_per_policy_geomean_table(self, validation):
        text = render_report(validation)
        assert "| policy | geomean error |" in text


class TestGenerate:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigurationError):
            generate_perf_report(scale=0.0)

    def test_writes_report_creating_parents(self, tmp_path, validation):
        out = tmp_path / "reports" / "nested" / "perf.md"
        text = generate_perf_report(
            out=out, scale=0.05, workload_ids=[17], policies=("occamy",)
        )
        assert out.read_text() == text
        assert text == render_report(validation)


class TestCli:
    def test_perf_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "perf.md"
        code = main(["perf-report", *SMALL, "--out", str(out)])
        assert code == 0
        assert "perf report written" in capsys.readouterr().out
        assert out.read_text().startswith("# Performance report")

    def test_perf_report_to_stdout(self, capsys):
        code = main(["perf-report", *SMALL])
        assert code == 0
        assert "# Performance report" in capsys.readouterr().out
