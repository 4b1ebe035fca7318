"""Batch-execute backend: batched kernels vs. the scalar per-entry loops.

Every kernel the batch backend replaces — dispatch metrics aggregation,
the commit prefix scan, and the full one-pass dispatch — is pinned
against the reference per-entry implementation on randomized inputs:
random operand sets, opcodes and dependence edges.  Equality is exact
(``==`` on every counter and float), not approximate: the backend promises
bit-identity.
"""

import random

import pytest

from repro.common.config import experiment_config
from repro.coproc.coprocessor import CoProcessor, SharingMode
from repro.coproc.dynamic import DynamicInstruction, EntryKind, EntryState, InstructionPool
from repro.coproc.lanes import LaneTable
from repro.coproc.metrics import Metrics
from repro.core.lane_manager import StaticLaneManager, TemporalLaneManager
from repro.validation.reference_engine import ReferenceCoProcessor, WindowScan
from tests.conftest import scan_view


class TestLaneBatchKernel:
    def test_active_mask_matches_ownership(self):
        rng = random.Random(7)
        table = LaneTable(16)
        for _ in range(30):
            core = rng.randint(0, 2)
            table.reconfigure(core, rng.randint(0, table.free_count + table.owned_count(core)))
            for probe in range(3):
                mask = table.active_mask(probe)
                assert mask == [
                    table.owner_of(lane) == probe for lane in range(16)
                ]


class TestMetricsBatchKernel:
    """Aggregated dispatch accounting == per-uop calls, bit for bit."""

    @pytest.mark.parametrize("pipes", [1, 2, 4])
    def test_compute_batch_exact(self, pipes):
        rng = random.Random(99)
        for _ in range(25):
            scalar = Metrics(2, 32, pipes)
            batched = Metrics(2, 32, pipes)
            for cycle in range(0, 4000, 37):
                core = rng.randint(0, 1)
                vls = [rng.randint(0, 32) for _ in range(rng.randint(0, 6))]
                flops = [rng.randint(0, 64) for _ in vls]
                for vl, fl in zip(vls, flops):
                    scalar.on_compute_dispatch(core, vl, fl, cycle)
                batched.on_compute_dispatch_batch(core, vls, sum(flops), cycle)
            assert scalar.compute_uops == batched.compute_uops
            assert scalar.flops == batched.flops
            assert scalar.busy_pipe_slots == batched.busy_pipe_slots
            for s_series, b_series in zip(
                scalar.busy_lanes_series, batched.busy_lanes_series
            ):
                assert s_series._sums == b_series._sums
                assert s_series._counts == b_series._counts

    def test_compute_batch_exact_non_power_of_two_pipes(self):
        # 1/3 is not representable: the batch path must fall back to
        # per-entry series adds to preserve the reference rounding.
        scalar = Metrics(1, 32, 3)
        batched = Metrics(1, 32, 3)
        vls = [1, 7, 13, 32, 5]
        for vl in vls:
            scalar.on_compute_dispatch(0, vl, 2, 10)
        batched.on_compute_dispatch_batch(0, vls, 10, 10)
        assert scalar.busy_lanes_series[0]._sums == batched.busy_lanes_series[0]._sums
        assert scalar.busy_pipe_slots == batched.busy_pipe_slots

    def test_ldst_batch_exact(self):
        scalar = Metrics(2, 32, 2)
        batched = Metrics(2, 32, 2)
        for _ in range(5):
            scalar.on_ldst_dispatch(1, 16, 256, 3)
        batched.on_ldst_dispatch_batch(1, 5)
        assert scalar.ldst_uops == batched.ldst_uops


def _make_entry(seq, core, kind, rng, producers):
    deps = tuple(
        rng.sample(producers, k=min(len(producers), rng.randint(0, 2)))
    )
    vl = rng.choice((0, 1, 4, 8, 16, 32))
    entry = DynamicInstruction(
        seq=seq,
        core=core,
        kind=kind,
        instr=None,
        vl_lanes=vl,
        transmit_cycle=0,
        deps=deps,
    )
    if kind is EntryKind.COMPUTE:
        entry.flops = vl * rng.choice((1, 2))
        entry.long_latency = rng.random() < 0.2
        entry.writes_vreg = rng.random() < 0.8
    else:
        entry.addr = rng.randrange(0, 1 << 14, 16)
        entry.nbytes = vl * 16
    return entry


class TestCommitBatchKernel:
    """Slice-delete ``commit_ready`` == the longest completed head prefix."""

    def test_random_windows(self):
        rng = random.Random(5)
        for _ in range(60):
            width = rng.randint(1, 8)
            cycle = rng.randint(0, 50)
            pool = InstructionPool(0, 64)
            entries = []
            for seq in range(rng.randint(0, 20)):
                entry = DynamicInstruction(
                    seq=seq,
                    core=0,
                    kind=EntryKind.COMPUTE,
                    instr=None,
                    vl_lanes=8,
                    transmit_cycle=0,
                )
                if rng.random() < 0.7:
                    entry.state = rng.choice((EntryState.ISSUED, EntryState.DONE))
                    entry.complete_cycle = rng.randint(0, 60)
                    entry.holds_phys_reg = rng.random() < 0.5
                entries.append(entry)
                pool.push(entry)
            pool.ready_dispatchable(cycle)  # build the index
            expected = []
            for entry in entries[:width]:  # in order, one at a time
                if entry.state is EntryState.WAITING or entry.complete_cycle > cycle:
                    break
                expected.append(entry)
            assert pool.commit_ready(cycle, width) == expected
            assert pool.committed == len(expected)
            assert pool.entries() == entries[len(expected) :]
            # The index survives: same dispatch candidates as a fresh scan.
            assert pool.ready_dispatchable(cycle) == [
                e for e in scan_view(pool).dispatchable() if e.ready(cycle)
            ]


def _observable_state(coproc):
    state = []
    for core in range(coproc.config.num_cores):
        pool = coproc.pools[core]
        state.append(
            (
                [
                    (e.seq, e.state.name, e.complete_cycle, e.holds_phys_reg)
                    for e in pool.entries()
                ],
                pool.transmitted,
                pool.committed,
                coproc.renamer.in_flight(core),
                repr(coproc.lsus[core].stats),
            )
        )
    metrics = coproc.metrics
    state.append(
        (
            metrics.busy_pipe_slots,
            list(metrics.compute_uops),
            list(metrics.ldst_uops),
            list(metrics.flops),
            [dict(s) for s in metrics.stalls],
            [(s._sums, s._counts) for s in metrics.busy_lanes_series],
            coproc.renamer.allocations,
            coproc.renamer.failed_allocations,
        )
    )
    return state


def _build_pair(mode, num_cores, config):
    coprocs = []
    for coproc_class in (ReferenceCoProcessor, CoProcessor):
        metrics = Metrics(num_cores, config.vector.total_lanes, 2)
        if mode is SharingMode.SPATIAL:
            per_core = config.vector.total_lanes // num_cores
            manager = StaticLaneManager({c: per_core for c in range(num_cores)})
        else:
            manager = TemporalLaneManager(config.vector.total_lanes)
        coprocs.append(coproc_class(config, mode, metrics, manager))
    return coprocs


class TestBatchedDispatchProperty:
    """Full one-pass dispatch == the reference per-entry scan, cycle by
    cycle, on randomized instruction streams (random opcodes, operand
    vector lengths including 0, dependence edges, rename/STQ pressure)."""

    @pytest.mark.parametrize(
        "mode",
        [SharingMode.SPATIAL, SharingMode.TEMPORAL, SharingMode.COARSE_TEMPORAL],
    )
    def test_random_streams_bit_identical(self, mode):
        config = experiment_config()
        num_cores = config.num_cores
        for trial in range(6):
            rng = random.Random(1000 * trial + len(mode.value))
            reference, batched = _build_pair(mode, num_cores, config)
            producers = [[[] for _ in range(num_cores)] for _ in range(2)]
            seq = 0
            kinds = (
                EntryKind.COMPUTE,
                EntryKind.COMPUTE,
                EntryKind.LOAD,
                EntryKind.STORE,
            )
            for cycle in range(400):
                if cycle < 250:
                    for _ in range(rng.randint(0, 4)):
                        core = rng.randrange(num_cores)
                        kind = rng.choice(kinds)
                        # Identical rng draws per side: clone the draw by
                        # snapshotting the generator state.
                        state = rng.getstate()
                        for side, coproc in enumerate((reference, batched)):
                            rng.setstate(state)
                            entry = _make_entry(
                                seq, core, kind, rng, producers[side][core][-8:]
                            )
                            if coproc.can_transmit(core):
                                coproc.transmit(entry)
                                producers[side][core].append(entry)
                        seq += 1
                reference.step(cycle)
                batched.step(cycle)
                assert _observable_state(reference) == _observable_state(
                    batched
                ), f"diverged at cycle {cycle} under {mode}"
            assert batched._batch.batched_calls > 0

    def test_zero_byte_access_cuts_a_plan_segment(self, monkeypatch):
        """A zero-byte memory op (VL 0 after a cts reclaim) completes within
        its own cycle and can wake a younger dependant mid-scan — the one
        dispatch shape after which the walk must re-query the ready index,
        and still without any per-uop loop."""
        per_uop = []
        loop = WindowScan.dispatch_core

        def spy(self, coproc, core, budget, cycle):
            per_uop.append(coproc)
            return loop(self, coproc, core, budget, cycle)

        monkeypatch.setattr(WindowScan, "dispatch_core", spy)
        config = experiment_config()
        num_cores = config.num_cores
        reference, batched = _build_pair(SharingMode.SPATIAL, num_cores, config)
        load = DynamicInstruction(
            seq=1,
            core=0,
            kind=EntryKind.LOAD,
            instr=None,
            vl_lanes=0,
            transmit_cycle=0,
            addr=0,
            nbytes=0,
        )
        for side_entry, coproc in (
            (load, reference),
            (
                DynamicInstruction(
                    seq=1,
                    core=0,
                    kind=EntryKind.LOAD,
                    instr=None,
                    vl_lanes=0,
                    transmit_cycle=0,
                    addr=0,
                    nbytes=0,
                ),
                batched,
            ),
        ):
            dependant = DynamicInstruction(
                seq=2,
                core=0,
                kind=EntryKind.COMPUTE,
                instr=None,
                vl_lanes=8,
                transmit_cycle=0,
                deps=(side_entry,),
                flops=8,
                writes_vreg=True,
            )
            coproc.transmit(side_entry)
            coproc.transmit(dependant)
            for cycle in range(40):
                coproc.step(cycle)
        assert _observable_state(reference) == _observable_state(batched)
        assert batched._batch.plan_cuts == 1
        # The dependant rode the segment planned after the cut, in the
        # access's own cycle, as under the reference's age-order walk.
        assert batched.metrics.compute_uops[0] == 1
        assert per_uop and all(coproc is reference for coproc in per_uop), (
            "the fast engine ran a per-uop loop"
        )
