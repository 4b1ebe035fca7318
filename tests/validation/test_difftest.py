"""Cross-engine differential fuzzer: generation, checking, bug detection."""

import pytest

from repro.coproc.metrics import Metrics
from repro.validation.difftest import (
    DEFAULT_POLICIES,
    CaseSpec,
    CompiledCase,
    PhaseSpec,
    check_case,
    fuzz_seeds,
    generate_case,
)
from repro.validation.fingerprint import fingerprint_sections
from repro.validation.reference_engine import ReferenceMachine, run_reference


class TestGeneration:
    def test_deterministic(self):
        assert generate_case(42) == generate_case(42)

    def test_distinct_seeds_distinct_cases(self):
        specs = {generate_case(seed) for seed in range(20)}
        assert len(specs) > 1

    def test_cases_compile(self):
        for seed in range(5):
            compiled = CompiledCase(generate_case(seed))
            assert any(program is not None for program in compiled.programs)

    def test_engine_matrix_is_complete(self, monkeypatch):
        """The matrix is fast vs reference: two runs per policy."""
        from repro.core.machine import Machine

        built = []
        original = Machine.__init__

        def spy(self, *args, **kwargs):
            built.append(type(self) is ReferenceMachine)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Machine, "__init__", spy)
        assert not check_case(generate_case(4))
        assert sorted(built) == [False] * 3 + [True] * 3

    def test_default_policies_cover_every_sharing_mode(self):
        from repro.core.policies import POLICIES_BY_KEY

        modes = {POLICIES_BY_KEY[key].mode for key in DEFAULT_POLICIES}
        assert len(modes) == 3


class TestCleanEngines:
    def test_fuzz_seeds_clean(self):
        # An always-on slice of the CI sweep: the fast engine must be
        # bit-identical to the reference on these cases, and every one of
        # its mechanisms must have run.
        seeds = range(40)
        report = fuzz_seeds(seeds)
        assert report.clean, "\n".join(str(d) for d in report.divergences)
        assert report.cases == len(seeds)
        assert report.runs == len(seeds) * len(DEFAULT_POLICIES) * 2
        assert not report.starved, report.traffic()

    def test_audited_run_matches_unaudited(self):
        from repro.core.policies import OCCAMY

        compiled = CompiledCase(generate_case(11))
        plain, audited = (
            fingerprint_sections(
                run_reference(compiled.config, OCCAMY, compiled.jobs(), audit=audit)
            )
            for audit in (False, True)
        )
        assert plain == audited


#: Shrunk regression case: under CTS, the quantum switch lands on a cycle
#: the event wheel had skipped — one component is asleep when
#: ``_cts_arbitrate`` rotates ownership, forcing the mid-cycle wake-all
#: path.  An early wheel engine dropped the re-slept component's
#: switch-cycle overhead from its frozen journal, shorting ``overhead`` by
#: one entry per re-sleep.
CTS_SWITCH_DURING_SKIP = CaseSpec(
    seed=0,
    cores=(
        (PhaseSpec(comp=17, reads=1, extra_loads=0, stores=3, trip=96, repeats=2),),
        (PhaseSpec(comp=14, reads=1, extra_loads=0, stores=1, trip=96, repeats=2),),
    ),
)


class TestCtsSwitchDuringSkip:
    def test_spec_exercises_a_mid_skip_switch(self, monkeypatch):
        """The pinned case really does switch quantum while a component
        sleeps — otherwise it regresses nothing."""
        from repro.core.machine import Machine

        sleeper_counts = []
        original = Machine._wake_all_mid_cycle

        def spy(self, cycle):
            sleeper_counts.append(sum(1 for a in self._awake if not a))
            return original(self, cycle)

        monkeypatch.setattr(Machine, "_wake_all_mid_cycle", spy)
        machine = CompiledCase(CTS_SWITCH_DURING_SKIP).machine("cts")
        machine.run()
        assert machine.coproc.cts_switches > 0
        assert any(count > 0 for count in sleeper_counts)

    def test_wheel_engines_stay_bit_exact(self):
        divergences = check_case(CTS_SWITCH_DURING_SKIP, policies=("cts",))
        assert not divergences, "\n".join(str(d) for d in divergences)


#: Pinned hard case for the batch-execute backend.  The 30-seed sweep came
#: up clean, so this spec was crafted rather than shrunk: under FTS the
#: rename-hungry core and the store-flooding core together drive the batch
#: planner through every mid-scan abort it models with shadow state —
#: shared-pool RENAME exhaustion, STORE_QUEUE saturation, ISSUE_BUDGET
#: splits and DEPENDENCY head-blocks — the paths where a planner that
#: peeked at live state (or replayed the scan out of order) would diverge.
BATCH_PLANNER_PRESSURE = CaseSpec(
    seed=0,
    cores=(
        (PhaseSpec(comp=12, reads=6, extra_loads=6, stores=8, trip=512, repeats=1),),
        (PhaseSpec(comp=1, reads=1, extra_loads=0, stores=14, trip=512, repeats=1),),
    ),
)


class TestBatchPlannerPressure:
    def test_spec_exercises_the_planner_abort_paths(self):
        """The pinned case really does hit rename and store-queue walls
        while dispatching in batches — otherwise it regresses nothing."""
        from repro.coproc.metrics import StallReason

        machine = CompiledCase(BATCH_PLANNER_PRESSURE).machine("fts")
        machine.run()

        stalls = {}
        for core in range(machine.config.num_cores):
            for reason, count in machine.metrics.stalls[core].items():
                stalls[reason] = stalls.get(reason, 0) + count
        assert stalls.get(StallReason.RENAME, 0) > 0
        assert stalls.get(StallReason.STORE_QUEUE, 0) > 0
        assert machine.profile.batched_dispatch_calls > 0
        # Nothing in this spec is a zero-byte access: one segment per plan.
        assert machine.profile.plan_cuts == 0

    def test_batch_engines_stay_bit_exact(self):
        divergences = check_case(BATCH_PLANNER_PRESSURE, policies=("fts",))
        assert not divergences, "\n".join(str(d) for d in divergences)

    def test_audited_batch_run_matches_unaudited(self):
        # The invariant auditor walks renamer/scoreboard state after every
        # batched commit and allocation; it must observe nothing the scalar
        # path would not have produced.
        compiled = CompiledCase(BATCH_PLANNER_PRESSURE)
        plain = fingerprint_sections(compiled.machine("fts").run())
        audited = fingerprint_sections(compiled.machine("fts", audit=True).run())
        assert plain == audited


class TestBugDetection:
    @pytest.fixture()
    def lossy_fast_forward(self, monkeypatch):
        """Inject a bug: settling a slept span forgets its metric
        increments, so the fast engine diverges from the reference in the
        stall/overhead accounting wherever a component slept."""
        monkeypatch.setattr(
            Metrics, "replay_core_idle_cycles", lambda self, core, events, times: None
        )

    def test_fuzzer_catches_injected_bug(self, lossy_fast_forward):
        spec = generate_case(0)
        divergences = check_case(spec, policies=("fts",))
        assert divergences, "injected metrics bug went undetected"
        for divergence in divergences:
            assert divergence.sections, str(divergence)
            assert divergence.detail

    def test_divergence_names_the_broken_section(self, lossy_fast_forward):
        divergences = check_case(generate_case(0), policies=("fts",))
        assert divergences
        sections = set(divergences[0].sections)
        # Lost idle increments corrupt the stall/overhead books but not the
        # architectural results: cycles and memory images must still agree.
        assert sections & {"stalls", "overhead"}
        assert "total_cycles" not in sections
        assert "memory_images" not in sections

    def test_divergence_report_is_json_ready(self, lossy_fast_forward):
        report = fuzz_seeds([0], policies=("fts",))
        assert not report.clean
        import json

        payload = json.dumps(report.to_json())
        assert "stalls" in payload


class TestCrashIsADivergence:
    """One engine raising where the other does not is a finding like any
    other: reported, written to ``--report``, shrunk — not a traceback."""

    @pytest.fixture()
    def crashing_settle(self, monkeypatch):
        """Inject a fast-only crash: waking a sleeper dies (the oracle
        never sleeps, so it never gets there)."""
        from repro.core.machine import Machine

        def settle(self, component, cycle):
            if not self._awake[component]:
                raise KeyError(f"no sleeper {component}")

        monkeypatch.setattr(Machine, "_settle", settle)

    def test_fast_only_raise_is_one_error_divergence(self, crashing_settle):
        report = fuzz_seeds([0], policies=("fts",))
        assert len(report.divergences) == 1
        divergence = report.divergences[0]
        assert divergence.sections == ["error"]
        assert "KeyError" in divergence.detail[0] and "got=" in divergence.detail[0]

    def test_cli_writes_the_report_and_a_shrunk_spec(self, crashing_settle, tmp_path):
        import json

        from repro.cli import main

        report_path = tmp_path / "report.json"
        argv = ["diff-fuzz", "--seeds", "1", "--policies", "fts"]
        code = main(
            argv + ["--report", str(report_path), "--emit-dir", str(tmp_path / "emit")]
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["clean"] is False
        assert [d["sections"] for d in report["divergences"]] == [["error"]]
        (emitted,) = (tmp_path / "emit").glob("test_fuzz_seed0_fts.py")
        namespace = {}
        exec(compile(emitted.read_text(), str(emitted), "exec"), namespace)  # noqa: S102
        spec, minimal = generate_case(0), namespace["test_seed0_fts"]
        with pytest.raises(AssertionError, match="diverged"):
            minimal()  # the shrunk spec still crashes the fast engine only
        assert str(spec) not in emitted.read_text()  # and it did shrink

    def test_same_error_on_both_engines_is_clean(self):
        # Both engines exhaust the same budget at the same cycle.
        assert not check_case(generate_case(0), policies=("fts",), max_cycles=50)

    def test_audit_violation_is_never_clean(self, monkeypatch):
        """An invariant broken on both engines alike is still a bug."""
        from repro.common.errors import InvariantViolation
        from repro.validation.invariants import InvariantAuditor

        def check_machine(self, cycle):
            raise InvariantViolation("broken at cycle 0")

        monkeypatch.setattr(InvariantAuditor, "check_machine", check_machine)
        divergences = check_case(generate_case(0), policies=("fts",), audit=True)
        assert [d.sections for d in divergences] == [["error"]]


class TestCli:
    def test_diff_fuzz_clean_exit_and_report(self, tmp_path):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(
            [
                "diff-fuzz",
                "--start",
                "2",  # one case that reaches every mechanism
                "--seeds",
                "1",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        import json

        report = json.loads(report_path.read_text())
        assert report["clean"] is True
        assert report["runs"] == len(DEFAULT_POLICIES) * 2
        assert all(report["traffic"].values())

    def test_diff_fuzz_fails_a_starved_sweep(self, capsys):
        """Seed 0 under FTS issues no zero-byte access, so the planner
        never cuts a segment: clean, yet exit 1."""
        from repro.cli import main

        code = main(["diff-fuzz", "--seeds", "1", "--policies", "fts"])
        out = capsys.readouterr().out
        assert code == 1
        assert "bit-identical" in out
        assert "no traffic for zero-byte plan cuts" in out

    def test_diff_fuzz_rejects_unknown_policy(self):
        from repro.cli import main

        assert main(["diff-fuzz", "--seeds", "1", "--policies", "bogus"]) == 2

    def test_audit_flag_sets_env(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        main(["diff-fuzz", "--seeds", "1", "--policies", "occamy", "--audit"])
        import os

        assert os.environ.get("REPRO_AUDIT") == "1"


class TestCaseSpecEvalRoundTrip:
    def test_repr_reconstructs_spec(self):
        spec = generate_case(3)
        clone = eval(  # noqa: S307 - controlled input, repr round-trip
            repr(spec),
            {"CaseSpec": CaseSpec, "PhaseSpec": PhaseSpec},
        )
        assert clone == spec
