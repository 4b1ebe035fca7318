"""The one-shot Markdown reproduction report."""

from pathlib import Path

import pytest

from repro.analysis.report import generate_report, write_report
from repro.cli import main


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(scale=0.05, pairs_limit=1)

    def test_sections_present(self, report):
        for heading in (
            "# Occamy reproduction report",
            "## Motivating example",
            "## Co-running pairs",
            "## Table 5",
            "## Area",
        ):
            assert heading in report

    def test_table5_exact_values_included(self, report):
        assert "| 12 | 16.0 | 16.0 | 24.0 | 16.0 |" in report

    def test_paper_references_included(self, report):
        assert "1.20 / 1.11 / 1.39" in report
        assert "+33.5%" in report

    def test_every_byte_is_the_captured_one(self, report):
        """``report_scale005_pairs1.md`` is what PR 23 wrote for these eight
        simulations, but for the two Fig. 12 lines PR 24 declared (VLS
        carries no Manager: 1.265 -> 1.263; 4-core FTS +35.5% -> +33.5%)
        and without the energy section, whose model is deleted."""
        golden = Path(__file__).with_name("report_scale005_pairs1.md")
        assert report == golden.read_text(encoding="utf-8")

    def test_markdown_tables_well_formed(self, report):
        for line in report.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")

    def test_write_report(self, tmp_path):
        path = tmp_path / "r.md"
        write_report(str(path), scale=0.05, pairs_limit=1)
        assert path.read_text().startswith("# Occamy reproduction report")

    def test_cli_report(self, tmp_path, capsys):
        path = tmp_path / "cli.md"
        assert main(["report", str(path), "--scale", "0.05", "--pairs", "1"]) == 0
        assert "report written" in capsys.readouterr().out


class TestDegenerateSeries:
    """Zero/negative measurement series must not crash report sections
    (a zero-utilization outcome used to hit ``math.log(0)``)."""

    class _ZeroOutcome:
        def speedup(self, key, core):
            return 0.0

        def utilization(self, key):
            return 0.0

        def rename_stall_fraction(self, key, core):
            return -0.0

    def test_pairs_section_survives_all_zero_outcomes(self):
        from repro.analysis.report import _pairs_section

        text = _pairs_section([self._ZeroOutcome()])
        assert "Co-running pairs" in text
        # Every geomean degraded to its no-information value, not a crash.
        assert "0.00" in text
