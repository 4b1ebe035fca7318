"""The case shrinker and its regression-test emitter."""

import subprocess
import sys

import pytest

from repro.coproc.metrics import Metrics
from repro.validation.difftest import (
    CaseSpec,
    PhaseSpec,
    check_case,
    generate_case,
)
from repro.validation.shrink import (
    _candidates,
    _phase_reductions,
    emit_regression_test,
    shrink_case,
    write_regression_test,
)


def _weight(spec: CaseSpec) -> int:
    """A size measure that every reduction pass strictly decreases."""
    total = spec.unroll + len(spec.forced)
    for phases in spec.cores:
        for phase in phases or ():
            total += (
                phase.comp
                + phase.reads
                + phase.extra_loads
                + phase.stores
                + phase.trip
                + phase.repeats
            )
    return total


class TestReductionPasses:
    def test_phase_reductions_stay_valid(self):
        phase = PhaseSpec(comp=8, reads=3, extra_loads=1, stores=2, trip=256, repeats=2)
        reductions = list(_phase_reductions(phase))
        assert reductions
        for reduced in reductions:
            reduced.counts()  # must not raise
            assert _weight(CaseSpec(0, ((reduced,),))) < _weight(
                CaseSpec(0, ((phase,),))
            )

    def test_candidates_shrink_every_dimension(self):
        spec = generate_case(5)
        candidates = list(_candidates(spec))
        assert candidates
        for candidate in candidates:
            assert _weight(candidate) < _weight(spec)
            assert candidate.seed == spec.seed

    def test_candidate_can_drop_a_core(self):
        spec = generate_case(5)
        assert any(
            sum(1 for phases in c.cores if phases) == 1 for c in _candidates(spec)
        )


class TestShrinkOnInjectedBug:
    @pytest.fixture()
    def lossy_fast_forward(self, monkeypatch):
        # Trips wherever a component slept (under FTS: every idle stretch).
        monkeypatch.setattr(
            Metrics, "replay_core_idle_cycles", lambda self, core, events, times: None
        )

    def test_minimized_case_still_diverges_and_is_smaller(self, lossy_fast_forward):
        spec = generate_case(0)
        assert check_case(spec, policies=("fts",))
        minimal = shrink_case(spec, "fts", max_evals=40)
        assert _weight(minimal) < _weight(spec)
        assert check_case(minimal, policies=("fts",))

    def test_shrink_is_noop_on_clean_case(self):
        spec = generate_case(1)
        assert shrink_case(spec, "occamy", max_evals=8) == spec


class TestEmission:
    def test_emitted_source_round_trips(self):
        spec = generate_case(2)
        filename, source = emit_regression_test(spec, "fts")
        assert filename == "test_fuzz_seed2_fts.py"
        namespace = {}
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
        tests = [v for k, v in namespace.items() if k.startswith("test_")]
        assert len(tests) == 1
        tests[0]()  # the clean case passes its own emitted regression test

    def test_emitted_file_is_collectable_by_pytest(self, tmp_path):
        spec = generate_case(2)
        path = write_regression_test(spec, "occamy", str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "test_seed2_occamy" in proc.stdout

    def test_emitted_test_fails_while_bug_present(self, monkeypatch):
        monkeypatch.setattr(
            Metrics, "replay_core_idle_cycles", lambda self, core, events, times: None
        )
        spec = generate_case(0)
        _, source = emit_regression_test(spec, "fts")
        namespace = {}
        exec(compile(source, "<emitted>", "exec"), namespace)  # noqa: S102
        test = [v for k, v in namespace.items() if k.startswith("test_")][0]
        with pytest.raises(AssertionError, match="diverged"):
            test()
