"""Scalar-core interpreter semantics, driven by hand-assembled programs."""

import numpy as np
import pytest

from repro.common.config import experiment_config
from repro.common.errors import SimulationError
from repro.coproc.coprocessor import CoProcessor, SharingMode
from repro.coproc.dynamic import DynamicInstruction, EntryKind
from repro.coproc.metrics import Metrics
from repro.core.lane_manager import StaticLaneManager
from repro.core.scalar_core import _VOP_IMPLS, ELEMS_PER_LANE, ScalarCore
from repro.isa.assembler import assemble
from repro.isa.instructions import Halt, Instruction, VOp
from repro.isa.operands import Imm, PReg, ScalarRef, VReg
from repro.isa.program import Program
from repro.memory.image import MemoryImage
from repro.validation.reference_engine import ReferenceCoProcessor, SeedCore

SETVL = """
setvl:
    msr <VL>, #8
    mrs X3, <status>
    b.ne X3, #1, setvl
"""


def machine_for(source, arrays=None, core_id=0, lanes_plan=None, core_class=ScalarCore):
    config = experiment_config()
    metrics = Metrics(config.num_cores, config.vector.total_lanes, 2)
    manager = StaticLaneManager(lanes_plan or {0: 16, 1: 16})
    coproc_class = ReferenceCoProcessor if core_class is SeedCore else CoProcessor
    coproc = coproc_class(config, SharingMode.SPATIAL, metrics, manager)
    image = MemoryImage.for_core(core_id)
    for name, data in (arrays or {}).items():
        image.add_array(name, np.asarray(data, dtype=np.float32))
    program = assemble(source)
    core = core_class(core_id, program, image, coproc, metrics, config.core)
    return core, coproc, image


def run(core, coproc, max_cycles=50_000):
    cycle = 0
    while not (core.halted and coproc.drained(core.core_id)):
        core.step(cycle)
        coproc.step(cycle)
        cycle += 1
        if cycle > max_cycles:
            raise AssertionError("program did not terminate")
    return cycle


class TestScalarSemantics:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            ("add", 7, 5, 12),
            ("sub", 7, 5, 2),
            ("mul", 7, 5, 35),
            ("div", 7, 5, 1.4),
            ("rem", 7, 5, 2),
            ("min", 7, 5, 5),
            ("max", 7, 5, 7),
            ("and", 6, 3, 2),
            ("or", 6, 3, 7),
            ("lsl", 3, 2, 12),
            ("lsr", 12, 2, 3),
        ],
    )
    def test_alu(self, op, a, b, expected):
        core, coproc, _ = machine_for(
            f"mov Xa, #{a}\nmov Xb, #{b}\n{op} Xc, Xa, Xb\nhalt"
        )
        run(core, coproc)
        assert core.regs["Xc"] == pytest.approx(expected)

    def test_division_by_zero_yields_zero(self):
        core, coproc, _ = machine_for("mov Xa, #3\ndiv Xc, Xa, #0\nhalt")
        run(core, coproc)
        assert core.regs["Xc"] == 0

    def test_branch_loop(self):
        source = """
            mov Xi, #0
        top:
            add Xi, Xi, #1
            b.lt Xi, #5, top
            halt
        """
        core, coproc, _ = machine_for(source)
        run(core, coproc)
        assert core.regs["Xi"] == 5

    def test_addvl_uses_configured_length(self):
        core, coproc, _ = machine_for(SETVL + "mov Xi, #0\naddvl Xi, Xi\nhalt")
        run(core, coproc)
        assert core.regs["Xi"] == 8 * 4  # 8 lanes * 4 fp32 elements


class TestBranchRetirement:
    """Regression: a retired taken branch reports its *own* index.

    The Fig. 15 overhead attribution keys off the per-cycle retirement
    list; a branch must contribute the index it retired at (execution
    resumes at the target, but the target did not retire this cycle).
    """

    SOURCE = """
        mov Xi, #0
    top:
        add Xi, Xi, #1
        b.lt Xi, #5, top
        halt
    """

    @pytest.mark.parametrize("core_class", [ScalarCore, SeedCore], ids=["True", "False"])
    def test_taken_branch_retires_its_own_pc(self, core_class):
        core, coproc, _ = machine_for(self.SOURCE, core_class=core_class)
        retired = []  # every cycle's retirement list, in order
        account = core._account_overhead

        def spy(retired_indices, stall_kind):
            retired.extend(retired_indices)
            account(retired_indices, stall_kind)

        core._account_overhead = spy
        run(core, coproc)
        assert core.regs["Xi"] == 5
        branch_pc = next(
            i for i, d in enumerate(core.decoded) if d is not None and d.is_branch
        )
        loop_head = core.program.target("top")
        # Xi = 1..4 branch back, Xi = 5 falls through: five retirements, all
        # at the branch's own index — the label it jumps to retires nothing.
        assert retired.count(branch_pc) == 5
        assert retired.count(loop_head) == 0
        after_branch = [
            after for at, after in zip(retired, retired[1:]) if at == branch_pc
        ]
        assert after_branch == [loop_head + 1] * 4 + [branch_pc + 1]


class TestVectorSemantics:
    def test_predicated_tail(self):
        source = SETVL + """
            mov Xi, #0
            mov Xn, #10
            whilelt p0, Xi, Xn
            ld1w z0, [a, Xi], p0
            fadd z1, z0, #1.0, p0
            st1w z1, [b, Xi], p0
            halt
        """
        core, coproc, image = machine_for(
            source, arrays={"a": np.ones(40), "b": np.zeros(40)}
        )
        run(core, coproc)
        np.testing.assert_allclose(image.array("b")[:10], 2.0)
        np.testing.assert_allclose(image.array("b")[10:], 0.0)

    def test_merging_predication_preserves_inactive_lanes(self):
        source = SETVL + """
            mov Xz, #0
            mov Xfull, #32
            whilelt p0, Xz, Xfull
            fdup z0, #5.0, p0
            mov Xtwo, #2
            whilelt p1, Xz, Xtwo
            fdup z0, #9.0, p1
            halt
        """
        core, coproc, _ = machine_for(source)
        run(core, coproc)
        values = core.vregs["z0"]
        assert values[0] == 9.0 and values[1] == 9.0
        assert values[2] == 5.0  # inactive lanes merged, not zeroed

    def test_hreduce_blocks_scalar_reader(self):
        source = SETVL + """
            mov Xi, #0
            mov Xn, #32
            whilelt p0, Xi, Xn
            ld1w z0, [a, Xi], p0
            faddv Xs, z0
            add Xt, Xs, #1
            halt
        """
        core, coproc, _ = machine_for(source, arrays={"a": np.full(40, 2.0)})
        run(core, coproc)
        assert core.regs["Xt"] == pytest.approx(65.0)

    def test_out_of_bounds_load_raises(self):
        source = SETVL + """
            mov Xi, #0
            mov Xn, #64
            whilelt p0, Xi, Xn
            ld1w z0, [a, Xi], p0
            halt
        """
        core, coproc, _ = machine_for(source, arrays={"a": np.zeros(8)})
        with pytest.raises(SimulationError):
            run(core, coproc)

    def test_sve_scalar_broadcast(self):
        source = SETVL + """
            mov Xk, #3.0
            mov Xz, #0
            mov Xfull, #32
            whilelt p0, Xz, Xfull
            fdup z0, #2.0, p0
            fmul z1, z0, Xk, p0
            faddv Xs, z1
            halt
        """
        core, coproc, _ = machine_for(source)
        run(core, coproc)
        assert core.regs["Xs"] == pytest.approx(2.0 * 3.0 * 32)


class TestVopFullWidthShortcut:
    """A ``VOp`` whose every destination lane is active stores ``impl``'s
    result as the register; any other case zero-fills and merges.  Both
    must leave the bytes the zero-fill-and-merge rule gives, and the stored
    array must be a fresh one."""

    ARITY = {"dup": 1, "mov": 1, "abs": 1, "neg": 1, "sqrt": 1, "fma": 3, "sel": 3}
    LANES = 4  # the VL the instruction runs at: 16 elements

    @staticmethod
    def _merge(op, operands, old, active, width):
        """The zero-fill-and-merge rule, spelled out."""
        result = np.zeros(width, dtype=np.float32)
        if old is not None:
            span = min(len(old), width)
            result[:span] = old[:span]
        if active > 0:
            result[:active] = _VOP_IMPLS[op](operands)
        return result

    @pytest.mark.parametrize("op", sorted(_VOP_IMPLS))
    @pytest.mark.parametrize(
        "case", ["full-width", "predicated-tail", "vl-shrunk", "scalar-operand"]
    )
    def test_matches_zero_fill_and_merge(self, op, case):
        rng = np.random.default_rng(7)
        elems = self.LANES * ELEMS_PER_LANE
        # Under "vl-shrunk" every register was written at twice today's VL.
        written = 2 * elems if case == "vl-shrunk" else elems
        names = [f"z{index}" for index in range(1, self.ARITY.get(op, 2) + 1)]
        srcs = [VReg(name) for name in names]
        if case == "scalar-operand":
            srcs[0] = ScalarRef("Xk")
            if len(srcs) > 1:
                srcs[-1] = Imm(1.5)
        pred = PReg("p0") if case == "predicated-tail" else None
        instr = VOp(op, VReg("z0"), tuple(srcs), pred=pred)
        config = experiment_config()
        metrics = Metrics(config.num_cores, config.vector.total_lanes, 2)
        coproc = CoProcessor(
            config, SharingMode.SPATIAL, metrics, StaticLaneManager({0: 16, 1: 16})
        )
        coproc.resource_table.force_vl(0, self.LANES)
        program = Program(instructions=(instr, Halt()))
        core = ScalarCore(0, program, MemoryImage.for_core(0), coproc, metrics, config.core)
        for name in ["z0"] + names:
            core.vregs[name] = (rng.random(written, dtype=np.float32) - 0.5) * 4
        core.regs["Xk"] = 2.5
        active = elems
        if pred is not None:
            active = core.pregs["p0"] = 5
        operands = []
        for src in srcs:
            if isinstance(src, VReg):
                operands.append(core.vregs[src.name][:active])
            elif isinstance(src, ScalarRef):
                operands.append(np.float32(core.regs[src.name]))
            else:
                operands.append(np.float32(src.value))
        old = core.vregs["z0"]
        inputs = [core.vregs[name] for name in names] + [old]
        want = self._merge(op, operands, old, active, max(elems, active))

        assert core.decoded[0].run(0) == ("ok", None)

        got = core.vregs["z0"]
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        for array in inputs:
            assert not np.shares_memory(got, array)


class TestEmSimdInteraction:
    def test_vl_request_grants_lanes(self):
        core, coproc, _ = machine_for(SETVL + "halt")
        run(core, coproc)
        assert coproc.configured_vl(0) == 8
        assert coproc.resource_table.free_lanes == 32 - 8

    def test_out_of_range_request_trips_protocol_check(self):
        # Requesting more lanes than physically exist is a protocol error
        # surfaced when the co-processor executes the MSR.
        core, coproc, _ = machine_for("msr <VL>, #33\nhalt")
        with pytest.raises(SimulationError):
            run(core, coproc)

    def test_mrs_decision_is_speculative(self):
        # Before any phase event no plan exists (decision 0); after an
        # MSR <OI> the plan is published and the speculative read sees it.
        source = """
            mrs Xbefore, <decision>
            msr <OI>, #(0.5, 0.5)
            mrs X3, <status>
            mrs Xafter, <decision>
            halt
        """
        core, coproc, _ = machine_for(source)
        run(core, coproc)
        assert core.regs["Xbefore"] == 0
        assert core.regs["Xafter"] == 16  # the static plan

    def test_mrs_status_synchronises_with_msr(self):
        core, coproc, _ = machine_for(SETVL + "mrs Xa, <AL>\nhalt")
        run(core, coproc)
        assert core.regs["Xa"] == 24  # 32 total - 8 granted

    def test_msr_oi_marks_phase(self):
        source = """
            mov Xoi, #(0.5, 0.25)
            msr <OI>, Xoi
            mrs X3, <status>
            mov Xz, #0
            msr <OI>, #(0, 0)
            mrs X3, <status>
            halt
        """
        core, coproc, _ = machine_for(source)
        run(core, coproc)
        phases = core.metrics.phases_of(0)
        assert len(phases) == 1
        assert phases[0].oi.issue == 0.5


#: One program per decoded kind, its first instruction the one under test;
#: the MRS cases run with and without an EM-SIMD write in the full pool.
POOL_BOUND_CASES = {
    "label": "top:\nhalt",
    "scalar-op": "mov Xa, #1\nhalt",
    "branch": "b done\ndone:\nhalt",
    "branch-cond": "b.lt Xa, #1, done\ndone:\nhalt",
    "addvl": "addvl Xi, Xi\nhalt",
    "halt": "halt",
    "msr-vl": "msr <VL>, #8\nhalt",
    "msr-oi": "msr <OI>, #(0.5, 0.5)\nhalt",
    "mrs-status": "mrs X3, <status>\nhalt",
    "mrs-status-behind-msr": "mrs X3, <status>\nhalt",
    "mrs-decision": "mrs X3, <decision>\nhalt",
    "whilelt": "whilelt p0, Xi, Xn\nhalt",
    "vop": "fadd z3, z1, z2\nhalt",
    "vload": "ld1w z1, [a, Xi]\nhalt",
    "vstore": "st1w z1, [a, Xi]\nhalt",
    "vhreduce": "faddv Xs, z1\nhalt",
}


class TestPoolBoundFlag:
    """``ScalarCore.pool_bound`` marks exactly the pcs where a step with a
    full pool is a no-op, which is what lets both run bodies skip it."""

    @staticmethod
    def _state(core, coproc):
        metrics = coproc.metrics
        return (
            dict(core.regs),
            {name: value.tolist() for name, value in core.vregs.items()},
            dict(core.pregs),
            core.pc,
            core.halted,
            core.retired,
            core.retired_vector,
            [entry.seq for entry in coproc.pools[0]._entries],
            [dict(stalls) for stalls in metrics.stalls],
            list(metrics.monitor_cycles),
            list(metrics.reconfig_cycles),
        )

    @pytest.mark.parametrize("case", sorted(POOL_BOUND_CASES))
    def test_flag_is_set_exactly_where_a_full_pool_step_is_a_no_op(self, case):
        core, coproc, _ = machine_for(POOL_BOUND_CASES[case], arrays={"a": [0.0] * 64})
        pool = coproc.pools[0]
        kinds = [EntryKind.COMPUTE] * pool.capacity
        if case == "mrs-status-behind-msr":
            kinds[0] = EntryKind.EMSIMD
        for kind in kinds:
            pool.push(DynamicInstruction(coproc.next_seq(), 0, kind, None, 1, 0))
        outcomes = []
        decoded = core.decoded[0]
        if decoded is not None:
            run_once = decoded.run
            decoded.run = lambda cycle: outcomes.append(run_once(cycle)) or outcomes[-1]
        before = self._state(core, coproc)
        core.step(5)
        no_op = outcomes[:1] == [("stall", None)] and self._state(core, coproc) == before
        assert core.pool_bound[0] is no_op
        assert core.pool_bound[-1] is False  # a halted core's pc
        assert len(core.pool_bound) == len(core.program.instructions) + 1

    def test_cases_cover_every_decoded_kind(self):
        covered = {type(assemble(src).instructions[0]) for src in POOL_BOUND_CASES.values()}
        assert covered == set(Instruction.__subclasses__())
