"""The oracle checks the fast engine's kernels; it does not share them.

``diff-fuzz`` can only see a slip in code that one engine runs and the
other does not.  Each case below seeds one slip into a fast-engine kernel
and requires the sweep to diverge: the oracle must be running its own
commit walk, its own renamer headroom check, its own per-uop metric
bookings, its own ld/st issue and its own operand reads at transmit (the
decoded handlers read registers and build dependence edges inline) — and
it never sleeps, so a lean body that folds a sleep too far or skips a step
that was not a no-op shows too.  The clean leg keeps the sweep honest in
the other direction.

A slip in the compiler is another matter: both engines run the program it
emitted, so they agree on it bit for bit.  The compiler's slips below
leave both engines identical and are seen only by the answers check
(:func:`~repro.compiler.reference.check_answers`), which ``diff-fuzz``
and every executed task run.
"""

import __future__
import inspect
import textwrap

import pytest

import repro.core.machine as machine_mod
from repro.analysis.parallel import SimTask, execute_task
from repro.common.config import experiment_config
from repro.common.errors import SimulationError
from repro.compiler import emsimd
from repro.compiler.emsimd import EmSimdCodegen
from repro.compiler.pipeline import CompileOptions, build_image, compile_kernel
from repro.compiler.reference import check_answers
from repro.coproc import batch_exec
from repro.coproc.dynamic import InstructionPool
from repro.coproc.metrics import Metrics
from repro.coproc.renamer import Renamer
from repro.core import scalar_core
from repro.core.machine import Job, Machine
from repro.core.policies import OCCAMY
from repro.core.scalar_core import ScalarCore
from repro.isa.instructions import MRS
from repro.validation.difftest import fuzz_seeds, run_forced
from repro.validation.fingerprint import diff_fingerprints, fingerprint_sections
from repro.validation.reference_engine import ReferenceMachine
from tests.conftest import make_axpy, make_reduction

SEEDS = range(12)
POLICIES = ("occamy", "fts", "cts")


def _narrow_commit(monkeypatch):
    commit_ready = InstructionPool.commit_ready
    monkeypatch.setattr(
        InstructionPool,
        "commit_ready",
        lambda self, cycle, width: commit_ready(self, cycle, width - 7),
    )


def _uncapped_headroom(monkeypatch):
    monkeypatch.setattr(
        Renamer, "available", lambda self, core: self._free[self._slot(core)]
    )


def _drop_one_compute(monkeypatch):
    book = Metrics.on_compute_dispatch_batch

    def slip(self, core, vls, total_flops, cycle):
        book(self, core, vls[:-1] if len(vls) > 1 else vls, total_flops, cycle)

    monkeypatch.setattr(Metrics, "on_compute_dispatch_batch", slip)


def _ignore_the_mob(monkeypatch):
    def slip(lsu, addr, nbytes, cycle, is_store):
        """``_issue_memory`` starting the access at ``cycle``, not at the
        MOB's start: an overlapping older store no longer delays it."""
        lsu.mob.earliest_start(addr, nbytes, cycle, is_store)
        result = lsu.memory.access(addr, nbytes, cycle, is_store)
        complete = result.complete_cycle
        lsu.mob.track(addr, nbytes, complete, is_store)
        stats = lsu.stats
        if is_store:
            stats.stores += 1
            stats.bytes_stored += nbytes
            queue = lsu._store_queue
            queue.append(queue[-1] if queue and complete < queue[-1] else complete)
        else:
            stats.loads += 1
            stats.bytes_loaded += nbytes
        stats.vec_cache_hits += result.vec_cache_hits
        stats.l2_hits += result.l2_hits
        stats.dram_accesses += result.dram_accesses
        return complete

    monkeypatch.setattr(batch_exec, "_issue_memory", slip)


def _shortcut_skips_tail_merge(monkeypatch):
    make_vop = ScalarCore._make_vop

    def slip(self, instr):
        """A ``VOp`` handler that takes the full-width shortcut on a
        predicated tail too: the register becomes the active lanes only,
        so the inactive ones read back as zeros instead of the old value."""
        run = make_vop(self, instr)
        if instr.pred is None:
            return run

        def slipped(cycle):
            outcome = run(cycle)
            if outcome[0] == "ok":
                active = self.pregs.get(instr.pred.name, 0)
                self.vregs[instr.dst.name] = self.vregs[instr.dst.name][:active].copy()
            return outcome

        return slipped

    monkeypatch.setattr(ScalarCore, "_make_vop", slip)


def _deps_drop_the_predicate(monkeypatch):
    ports = ScalarCore._ports

    def slip(self):
        """The transmit port: every entry reaches the pool without an edge
        to its predicate's writer."""
        entries, capacity, push, next_seq, row = ports(self)

        def push_without_predicate(entry):
            pred = getattr(entry.instr, "pred", None)
            if pred is not None:
                writer = self._last_writer.get(pred.name)
                entry.deps = tuple(dep for dep in entry.deps if dep is not writer)
            push(entry)

        return entries, capacity, push_without_predicate, next_seq, row

    monkeypatch.setattr(ScalarCore, "_ports", slip)


def _fold_across_other_wakes(monkeypatch):
    """The lean body's fold also taken when another component's wake comes
    first or at the same cycle: the lone component jumps over it, and the
    other is woken late.  Cut from the method's own source."""
    source = textwrap.dedent(inspect.getsource(Machine._run_lone))
    bound = "cycle + 1 < wake < limit"
    assert source.count(bound) == 1
    code = compile(
        source.replace(bound, "cycle + 1 < wake < max_cycles"),
        machine_mod.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, vars(machine_mod), namespace)
    monkeypatch.setattr(Machine, "_run_lone", namespace["_run_lone"])


def _mrs_pool_bound(monkeypatch):
    """The pool-bound flag also set for ``MRS``, whose handler never tests
    the pool: a full pool now also skips its read and its EM-SIMD sync stall."""
    monkeypatch.setattr(scalar_core, "_POOL_BOUND", scalar_core._POOL_BOUND + (MRS,))


@pytest.mark.parametrize(
    "seed_slip",
    [
        _narrow_commit,
        _uncapped_headroom,
        _drop_one_compute,
        _ignore_the_mob,
        _shortcut_skips_tail_merge,
        _deps_drop_the_predicate,
        _fold_across_other_wakes,
        _mrs_pool_bound,
    ],
    ids=[
        "commit-width",
        "renamer-hold-cap",
        "compute-batch-booking",
        "ldst-mob-start",
        "vop-tail-merge",
        "predicate-dependence",
        "fold-across-wakes",
        "mrs-pool-bound",
    ],
)
def test_fast_engine_slip_is_caught(monkeypatch, seed_slip):
    seed_slip(monkeypatch)
    report = fuzz_seeds(SEEDS, policies=POLICIES)
    assert report.divergences, f"{seed_slip.__name__} went unseen by diff-fuzz"


def test_no_slip_no_divergence():
    report = fuzz_seeds(SEEDS, policies=POLICIES)
    assert report.clean, [str(d) for d in report.divergences]
    assert report.runs == 2 * len(SEEDS) * len(POLICIES)


def _no_reduction_splice(monkeypatch):
    """No vector partial is folded into its scalar carry: neither at a
    vector-length change nor after the loop."""
    monkeypatch.setattr(EmSimdCodegen, "_emit_reduction_splice", lambda self, vloop: None)


def _no_reinit_after_revl(monkeypatch):
    """The re-initialisation after a vector-length change left out, the
    prologue's kept: a splatted parameter keeps its old length, so the
    lanes a grown length adds read zeros (the splice resets the
    accumulators itself).  Cut from the method's own source."""
    source = textwrap.dedent(inspect.getsource(EmSimdCodegen.emit_phase))
    reinit = "self._emit_invariants(vloop)  # re-init for the new length (§6.4)"
    assert source.count(reinit) == 1
    code = compile(
        source.replace(reinit, "pass"),
        emsimd.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = {}
    exec(code, vars(emsimd), namespace)
    monkeypatch.setattr(EmSimdCodegen, "emit_phase", namespace["emit_phase"])


#: Each compiler slip and the first wrong answer it leaves.
COMPILER_SLIPS = pytest.mark.parametrize(
    "seed_slip, wrong",
    [
        (_no_reduction_splice, "core 1 array 'acc' index 0"),
        (_no_reinit_after_revl, "core 0 array 'y' index"),
    ],
    ids=["splice", "reinit"],
)

#: Core 0 splats a parameter, core 1 reduces: the first slip breaks
#: core 1's answer, the second core 0's once its vector length grows.
SLIP_KERNELS = (make_axpy(length=3000), make_reduction(length=300))


@COMPILER_SLIPS
def test_compiler_slip_leaves_the_engines_identical_and_fails_the_check(
    monkeypatch, seed_slip, wrong
):
    seed_slip(monkeypatch)
    config = experiment_config()
    options = CompileOptions(memory=config.memory)
    programs = [compile_kernel(kernel, options) for kernel in SLIP_KERNELS]
    results = []
    for engine in (Machine, ReferenceMachine):
        jobs = [
            Job(program, build_image(kernel, core_id=core))
            for core, (kernel, program) in enumerate(zip(SLIP_KERNELS, programs))
        ]
        results.append(run_forced(engine(config, OCCAMY, jobs), (2, 30, 8), period=90))
    fast, reference = (fingerprint_sections(result) for result in results)
    assert not diff_fingerprints(fast, reference)
    with pytest.raises(SimulationError, match=wrong):
        check_answers(SLIP_KERNELS, results[0].images, seed_slip.__name__)


def test_diff_fuzz_sees_a_skipped_splice_in_the_answers_alone(monkeypatch):
    _no_reduction_splice(monkeypatch)
    report = fuzz_seeds(SEEDS, policies=POLICIES)
    assert report.divergences, "a skipped splice went unseen"
    sections = {section for d in report.divergences for section in d.sections}
    assert sections <= {"answers", "forced answers"}, [str(d) for d in report.divergences]


def _slip_task() -> SimTask:
    return SimTask(
        policy_key="occamy",
        scale=1.0,
        config=experiment_config(),
        kind="kernels",
        kernels=SLIP_KERNELS,
    )


@COMPILER_SLIPS
def test_an_executed_task_with_a_compiler_slip_raises(monkeypatch, seed_slip, wrong):
    """The same check guards every task a sweep or the daemon runs: here
    core 1 finishes first and the lane manager grows core 0 mid-loop."""
    seed_slip(monkeypatch)
    with pytest.raises(SimulationError, match=f"axpy\\+dot under occamy at scale 1.0: {wrong}"):
        execute_task(_slip_task())


def test_no_compiler_slip_passes_the_check():
    execute_task(_slip_task())
