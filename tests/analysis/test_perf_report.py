"""The auto-generated perf report (``repro perf-report``)."""

import json

import pytest

from repro.analysis.perf_report import (
    ECM_GATE_ROW,
    generate_perf_report,
    load_bench_records,
    render_report,
)
from repro.analysis.validation import validate_ecm
from repro.cli import main
from repro.common.errors import ConfigurationError


def _record(name, speedup=2.0):
    return {
        "schema": "repro-bench/1",
        "bench": name,
        "speedup": speedup,
        "slow_seconds": 1.0,
        "fast_seconds": 1.0 / speedup,
        "bench_scale": 0.1,
        "python": "3.11.0",
        "recorded_at": "2026-08-08T00:00:00Z",
    }


@pytest.fixture()
def bench_dir(tmp_path):
    (tmp_path / "BENCH_zeta.json").write_text(json.dumps(_record("zeta", 3.5)))
    nested = tmp_path / "artifacts" / "deep"
    nested.mkdir(parents=True)
    (nested / "BENCH_alpha.json").write_text(json.dumps(_record("alpha", 1.8)))
    # Decoys: malformed JSON, a record with no bench name, a non-BENCH file.
    (tmp_path / "BENCH_broken.json").write_text("{not json")
    (tmp_path / "BENCH_anon.json").write_text(json.dumps({"speedup": 9.0}))
    (tmp_path / "other.json").write_text(json.dumps(_record("ignored")))
    return tmp_path


class TestBenchRecords:
    def test_recursive_load_filters_and_sorts(self, bench_dir):
        records = load_bench_records(bench_dir)
        assert [r["bench"] for r in records] == ["alpha", "zeta"]

    def test_empty_directory(self, tmp_path):
        assert load_bench_records(tmp_path) == []


class TestRender:
    def test_trajectory_rows_present(self, bench_dir):
        text = render_report(load_bench_records(bench_dir))
        assert text.startswith("# Performance report")
        assert "`zeta`" in text and "3.50x" in text
        assert "`alpha`" in text and "1.80x" in text
        assert "docs/perf-model.md" in text

    def test_no_records_yields_placeholder(self):
        text = render_report([])
        assert "No `BENCH_*.json` records found" in text

    def test_skipped_validation_is_announced(self):
        text = render_report([], validation=None)
        assert "Validation skipped" in text

    def test_markdown_tables_well_formed(self, bench_dir):
        for line in render_report(load_bench_records(bench_dir)).splitlines():
            if line.startswith("|"):
                assert line.endswith("|")


class TestValidationSection:
    @pytest.fixture(scope="class")
    def validation(self):
        # One workload, one policy: a single short simulation.
        return validate_ecm(workload_ids=[17], policies=("occamy",), scale=0.05)

    def test_per_workload_error_table(self, validation):
        text = render_report([], validation)
        assert "## ECM model vs simulator" in text
        assert "| WL17 | occamy |" in text
        assert "Geomean relative cycle error" in text
        assert f"{100 * ECM_GATE_ROW.paper_value:.0f}%" in text

    def test_gate_verdict_rendered(self, validation):
        text = render_report([], validation)
        verdict = "PASS" if validation.geomean_error <= ECM_GATE_ROW.paper_value else "FAIL"
        assert verdict in text

    def test_per_policy_geomean_table(self, validation):
        text = render_report([], validation)
        assert "| policy | geomean error |" in text


class TestGenerate:
    def test_rejects_nonpositive_scale(self, tmp_path):
        with pytest.raises(ConfigurationError):
            generate_perf_report(bench_dir=tmp_path, scale=0.0)

    def test_writes_report_creating_parents(self, bench_dir):
        out = bench_dir / "reports" / "nested" / "perf.md"
        text = generate_perf_report(bench_dir=bench_dir, out=out, validate=False)
        assert out.read_text() == text
        assert text.startswith("# Performance report")


class TestCli:
    def test_perf_report_to_file(self, bench_dir, capsys):
        out = bench_dir / "perf.md"
        code = main(
            ["perf-report", "--bench-dir", str(bench_dir),
             "--skip-validation", "--out", str(out)]
        )
        assert code == 0
        assert "perf report written" in capsys.readouterr().out
        assert out.read_text().startswith("# Performance report")

    def test_perf_report_to_stdout(self, bench_dir, capsys):
        code = main(
            ["perf-report", "--bench-dir", str(bench_dir), "--skip-validation"]
        )
        assert code == 0
        assert "# Performance report" in capsys.readouterr().out
