"""Bit-exact steady-state loop replay (the busy-cycle fast path, level 2).

The paper's workloads spend most of their simulated time re-executing
identical strip-mined loop iterations: partition decisions only happen at
iteration boundaries (§6, Fig. 9), and between phase-changing points the
machine settles into a *steady state* whose per-iteration timing repeats
exactly (the ECM observation that steady-loop time is affine in the
iteration count).  This module exploits that: once a loop's timing
signature has stabilised, whole iterations are replayed from a recorded
**event template** instead of being re-simulated cycle by cycle.

Design — record, verify, replay, roll back:

* **Detection.**  Scalar cores report taken backward branches
  (:attr:`ScalarCore.on_backedge`); each one requests a *probe* of the
  machine state at the next cycle boundary.  A probe first takes an
  O(cores) *coarse key* — a projection of the boundary signature — and
  only when that key has been seen before builds the exact signature
  (the *probe gate*: equal signatures have equal coarse keys, so a new
  coarse key proves a new signature).  When one signature recurs at a
  constant cycle distance ``P``, the machine is a candidate for steady
  state with period ``P``.
* **Recording.**  For one whole period the controller mirrors every
  externally visible engine decision into a template: scalar retires
  (pc + outcome), out-of-order dispatches (entry identity, operand width,
  completion time), in-order commits, per-cycle stall/overhead
  attributions, idle-cycle fast-forward jumps and CTS ownership switches.
  Entries are named by their sequence number *relative to the period
  start*, and completion times relative to the period base cycle, so the
  template is position-independent.
* **Replay.**  At each subsequent period boundary the controller checks a
  *boundary signature* (relative pool contents and readiness, pending
  scalar write-backs, store-queue occupancy, renamer freelists, dispatch
  rotation, CTS state) and then re-applies the template: decoded scalar
  handlers run for real (so register values, memory images and new pool
  entries are exact), ``LoadStoreUnit.issue`` runs for real (so cache
  tags, LRU state, MOB ordering and bandwidth queues evolve exactly as
  the slow path would), and only the *decisions* — which entry dispatches
  or commits when — come from the template.  Every applied event is
  verified against the live state (program counters, outcomes, readiness,
  renamer grants, completion times); because all completions are verified
  to land at the recorded relative cycles, the slow path is guaranteed to
  have made exactly the scripted decisions, so the replayed machine state
  is bit-identical to cycle-by-cycle simulation.
* **Rollback.**  The whole period is applied inside a transaction
  (:class:`MachineTxn`): caches journal lazily per set, every other
  touched structure is snapshotted.  Any verification mismatch — the loop
  epilogue, a VL reconfiguration, a co-runner's phase change landing —
  aborts the period, restores the exact pre-period state and drops back
  to cycle-by-cycle simulation.

EM-SIMD instructions (``MSR <OI>``/``MSR <VL>``) *executing* during the
recorded period poison the template, so lane re-partitioning always takes
the slow path.  The reference engine (``Machine(reference=True)``) never
builds a :class:`ReplayController`; the differential fuzzer diffs it
against the replaying fast engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.coproc.coprocessor import LONG_LATENCY, SharingMode
from repro.coproc.dynamic import EntryKind, EntryState

#: Period bounds, in cycles.  The lower bound rejects degenerate loops;
#: the upper bound caps template memory and rollback cost (co-runner
#: pairs routinely lock into joint patterns spanning 16+ iterations of
#: each individual loop, so this is deliberately generous).
MIN_PERIOD = 2
MAX_PERIOD = 4096

#: Verification failures on a backedge site before it is suspended.
MAX_SITE_FAILS = 4

#: Cycles to wait after a failed template before watching for loops again.
COOLDOWN_CYCLES = 512

#: Futility budget: probes (backedge-cycle state checks, whether the gate
#: resolved them from the coarse key or they built the full signature)
#: that neither resume a saved template nor arm a recording, before the
#: probe stride doubles.  Keeps the fast path near-zero-overhead on
#: workloads whose state never recurs (irregular phases, CTS quantum
#: interleavings) — the stride resets the moment a replay succeeds.
FUTILE_PROBE_LIMIT = 256
MAX_PROBE_STRIDE = 256

#: Suspension after ``MAX_SITE_FAILS`` failures.  Early failures are
#: usually warm-up drift (bandwidth backlog and pool occupancy still
#: settling), so a site gets another chance once the machine has had time
#: to reach steady state; repeated suspension re-arms at the longest
#: escalated period.
SUSPEND_CYCLES = 4096


@dataclass
class ReplayProfile:
    """Simulated-cycle attribution for one run (the ``--profile`` report)."""

    total_cycles: int = 0
    interpreted_cycles: int = 0
    fastforward_cycles: int = 0
    replayed_cycles: int = 0
    replayed_periods: int = 0
    templates_built: int = 0
    replay_aborts: int = 0
    #: Probes the gate resolved as futile from the O(cores) coarse key
    #: alone, vs. probes that built the full boundary signature.
    probes_gated: int = 0
    probes_full: int = 0
    #: Per-component (core complex) cycle attribution from the tickless
    #: event-wheel engine: cycles stepped with at least one event, cycles
    #: stepped with none, and cycles skipped while asleep.  All-zero
    #: under the reference engine.
    component_busy: List[int] = field(default_factory=list)
    component_idle: List[int] = field(default_factory=list)
    component_asleep: List[int] = field(default_factory=list)
    #: Batch-execute backend attribution: per-core-cycle dispatch calls
    #: handled by the opcode-grouped plan/apply path vs. routed through the
    #: scalar per-entry fallback, and uops issued via groups.  All-zero
    #: under the reference engine.
    batched_dispatch_calls: int = 0
    scalar_dispatch_calls: int = 0
    batched_uops: int = 0

    def merge(self, other: "ReplayProfile") -> None:
        self.total_cycles += other.total_cycles
        self.interpreted_cycles += other.interpreted_cycles
        self.fastforward_cycles += other.fastforward_cycles
        self.replayed_cycles += other.replayed_cycles
        self.replayed_periods += other.replayed_periods
        self.templates_built += other.templates_built
        self.replay_aborts += other.replay_aborts
        self.probes_gated += other.probes_gated
        self.probes_full += other.probes_full
        self.batched_dispatch_calls += other.batched_dispatch_calls
        self.scalar_dispatch_calls += other.scalar_dispatch_calls
        self.batched_uops += other.batched_uops
        self.component_busy = _merge_padded(self.component_busy, other.component_busy)
        self.component_idle = _merge_padded(self.component_idle, other.component_idle)
        self.component_asleep = _merge_padded(
            self.component_asleep, other.component_asleep
        )

    def report(self) -> str:
        """Human-readable attribution table."""
        total = max(1, self.total_cycles)

        def pct(part: int) -> str:
            return f"{100.0 * part / total:5.1f}%"

        lines = [
            "simulated-cycle attribution:",
            f"  total cycles        {self.total_cycles:>12}",
            f"  interpreted         {self.interpreted_cycles:>12}  {pct(self.interpreted_cycles)}",
            f"  fast-forwarded      {self.fastforward_cycles:>12}  {pct(self.fastforward_cycles)}",
            f"  loop-replayed       {self.replayed_cycles:>12}  {pct(self.replayed_cycles)}",
            f"  replayed periods    {self.replayed_periods:>12}",
            f"  templates built     {self.templates_built:>12}",
            f"  replay aborts       {self.replay_aborts:>12}",
            f"  probes gated        {self.probes_gated:>12}",
            f"  probes full         {self.probes_full:>12}",
        ]
        if any(self.component_busy) or any(self.component_asleep):
            lines.append("per-component stepped cycles (event-wheel engine):")
            for core in range(len(self.component_busy)):
                busy = self.component_busy[core]
                idle = self.component_idle[core]
                asleep = (
                    self.component_asleep[core]
                    if core < len(self.component_asleep)
                    else 0
                )
                lines.append(
                    f"  core {core}   busy {busy:>12}  idle-stepped {idle:>12}"
                    f"  asleep {asleep:>12}"
                )
        if self.batched_dispatch_calls or self.scalar_dispatch_calls:
            calls = max(1, self.batched_dispatch_calls + self.scalar_dispatch_calls)
            share = 100.0 * self.batched_dispatch_calls / calls
            lines.append("batch-execute backend (per-core dispatch calls):")
            lines.append(
                f"  batched             {self.batched_dispatch_calls:>12}  {share:5.1f}%"
            )
            lines.append(
                f"  scalar fallback     {self.scalar_dispatch_calls:>12}"
            )
            lines.append(f"  uops in groups      {self.batched_uops:>12}")
        return "\n".join(lines)


def _merge_padded(mine: List[int], theirs: List[int]) -> List[int]:
    """Element-wise sum, padding the shorter list with zeros."""
    if not theirs:
        return mine
    if not mine:
        return list(theirs)
    size = max(len(mine), len(theirs))
    return [
        (mine[i] if i < len(mine) else 0) + (theirs[i] if i < len(theirs) else 0)
        for i in range(size)
    ]


#: Process-wide aggregate over every completed run (CLI ``--profile``).
#: Sweeps fanned out over worker processes contribute only the runs that
#: executed in this process.
GLOBAL_PROFILE = ReplayProfile()


class _Mismatch(Exception):
    """A replayed event diverged from the live machine state."""


@dataclass(eq=False)
class _Template:
    """One recorded steady-state period, compiled for fast application.

    Recording captures per-cycle event lists with tuples (all entry ids
    and completion times relative to the period base):
    ``("x", core, pc, outcome, target)`` scalar retire;
    ``("d", core, rel_seq, vl_lanes, amount, rel_complete)`` dispatch;
    ``("c", core, rel_seq)`` commit; ``("s", core, reason)`` stall;
    ``("o", core, kind)`` overhead cycle; ``("f", skipped)`` fast-forward
    jump; ``("t", owner, rel_until, rel_blocked)`` CTS ownership switch.
    Finalisation splits them into the *timed* stream (x/d/c/t — these
    mutate machine state at a specific cycle and carry the verification)
    and pre-summed counter totals (s/o/f are order-independent
    increments, so one period applies them in bulk).
    """

    period: int
    #: ``(offset, event)`` pairs for x/d/c/t events, in recording order.
    timed: List[Tuple[int, tuple]]
    #: Summed stall attributions: ``(core, reason) -> count`` per period
    #: (fast-forward-elided repeats already multiplied in).
    stall_totals: Dict[tuple, int]
    #: Summed overhead cycles: ``(core, kind) -> count`` per period.
    overhead_totals: Dict[tuple, int]
    #: Boundary signature the machine must match for the template to apply.
    sig: tuple
    #: Relative cycle of the last progress event (drives the run loop's
    #: deadlock accounting after a replayed span).
    progress_offset: int
    #: Hash of the coarse key at the recording boundary: a probe matching
    #: it is never gated, so it always reaches the ``sig`` comparison.
    coarse: int
    #: Backedge site that triggered the recording (failure accounting).
    site: Optional[tuple] = None


class MachineTxn:
    """Transactional snapshot of everything one replayed period may touch."""

    def __init__(self, machine) -> None:
        self.machine = machine
        coproc = machine.coproc
        coproc.memory.begin_txn()
        self._pools = [pool.snapshot() for pool in coproc.pools]
        self._lsus = [lsu.snapshot() for lsu in coproc.lsus]
        self._renamer = coproc.renamer.snapshot()
        self._metrics = machine.metrics.snapshot()
        self._coproc = (
            coproc._seq,
            coproc._rotate,
            coproc._cts_owner,
            coproc._cts_until,
            coproc._cts_blocked_until,
            coproc.cts_switches,
        )
        self._cores = []
        for core in machine.cores:
            if core is None:
                self._cores.append(None)
            else:
                self._cores.append(core.replay_snapshot())
                core._undo_log = []

    def commit(self) -> None:
        self.machine.coproc.memory.commit_txn()
        for core in self.machine.cores:
            if core is not None:
                core._undo_log = None
        # The replayed period mutated entries behind the ready-set index
        # (template-scripted issues bypass the waiter notifications).
        for pool in self.machine.coproc.pools:
            pool.mark_dirty()

    def rollback(self) -> None:
        machine = self.machine
        coproc = machine.coproc
        coproc.memory.abort_txn()
        for pool, snap in zip(coproc.pools, self._pools):
            pool.restore(snap)  # restore() also dirties the ready-set index
        for lsu, snap in zip(coproc.lsus, self._lsus):
            lsu.restore(snap)
        coproc.renamer.restore(self._renamer)
        machine.metrics.restore(self._metrics)
        (
            coproc._seq,
            coproc._rotate,
            coproc._cts_owner,
            coproc._cts_until,
            coproc._cts_blocked_until,
            coproc.cts_switches,
        ) = self._coproc
        for core, snap in zip(machine.cores, self._cores):
            if core is None:
                continue
            # Undo in-place memory-image writes newest-first.
            for array, index, old in reversed(core._undo_log):
                array[index : index + len(old)] = old
            core._undo_log = None
            core.replay_restore(snap)


class ReplayController:
    """Per-run driver: detection, recording, verified replay.

    One instance is created by every fast-engine :meth:`Machine.run`;
    :meth:`on_cycle` is called at the top of every run-loop
    iteration and may return an advanced cycle after replaying whole
    periods.
    """

    _IDLE, _RECORD, _REPLAY = 0, 1, 2

    def __init__(self, machine) -> None:
        self.machine = machine
        self.state = self._IDLE
        self.profile = ReplayProfile()
        # Signature-recurrence watching (see :meth:`on_backedge`):
        # signature hash -> (last cycle seen, last recurrence distance).
        self._sig_seen: Dict[int, Tuple[int, int]] = {}
        # The probe gate (see :meth:`_probe`): coarse-key hash -> cycle of
        # its first sighting, which the gate deferred; None once the second
        # sighting has taken it over.
        self._coarse_seen: Dict[int, Optional[int]] = {}
        #: Retired-but-reusable templates, newest last.  A loop disturbed
        #: by a periodic epilogue (an array pass's short tail chunk, a
        #: co-runner phase change) re-enters the very same steady state a
        #: few iterations later; resuming the saved template skips the
        #: whole detect-and-record latency on every pass.
        self._saved: List[_Template] = []
        self._site_fails: Dict[tuple, int] = {}
        self._blacklist: set = set()
        self._suspended: Dict[tuple, int] = {}
        self._cooldown_until = 0
        # Probe-futility throttle (see FUTILE_PROBE_LIMIT).
        self._futile_probes = 0
        self._probe_stride = 1
        self._backedge_count = 0
        # Probe request / in-progress recording.
        self._probe_at = -1
        self._probe_site: Optional[tuple] = None
        self._arm_site: Optional[tuple] = None
        self._period = 0
        self._base = 0
        self._base_seq = 0
        self._events: List[List[tuple]] = []
        self._sig: Optional[tuple] = None
        self._sig_coarse = 0
        self._poisoned = False
        self._template: Optional[_Template] = None
        for core in machine.cores:
            if core is not None:
                core.on_backedge = self.on_backedge

    @property
    def engaged(self) -> bool:
        """True while a probe is pending or the controller is recording or
        replaying.

        The tickless scheduler puts no component to sleep while the
        controller is engaged.  Recording needs every component's live
        events and replayed spans advance the clock past any sleeper's
        bookkeeping, so those always wake every sleeper first; a pending
        probe does so only when :meth:`needs_all_awake` says it will read
        the full-machine signature.
        """
        return self.state is not self._IDLE or self._probe_at >= 0

    def needs_all_awake(self, cycle: int) -> bool:
        """Whether :meth:`on_cycle` at ``cycle`` may read sleepers' state.

        False only for a pending probe the gate will resolve from the
        coarse key, which reads nothing a sleeping component can change
        (pool occupancy, pc and the renamer counts are frozen while it
        sleeps; the dispatch rotation is advanced for skipped cycles).
        """
        if self.state is not self._IDLE or self._probe_at != cycle:
            return True
        return not self._gated(hash(self._coarse_key()))
    #
    # The period is found by *observing state recurrence directly* rather
    # than by trusting one core's backedge interval: a backedge requests a
    # signature probe at the next cycle boundary, and when the signature's
    # hash repeats at some distance d the joint machine state has provably
    # (modulo hash collision, which recording verification absorbs) come
    # back around — d is the true period of the whole system, including
    # co-runner interleavings whose combined pattern spans many iterations
    # of each individual loop.

    def on_backedge(self, core: int, from_pc: int, target: int, cycle: int) -> None:
        if self.state is not self._IDLE or self._probe_at >= 0:
            return
        if cycle < self._cooldown_until:
            return
        site = (core, from_pc, target)
        if site in self._blacklist or cycle < self._suspended.get(site, 0):
            return
        self._backedge_count += 1
        if self._backedge_count % self._probe_stride:
            return
        # The backedge fires mid-step with the machine half-advanced; the
        # signature is only meaningful at a cycle boundary, so defer.
        self._probe_at = cycle + 1
        self._probe_site = site

    def _probe(self, cycle: int) -> bool:
        """Check the state at a cycle boundary; may arm a recording.

        Returns True when a saved template's signature matches the current
        state — the caller should replay it immediately, no re-recording
        needed.

        The *probe gate* runs first.  The coarse key is a projection of
        the signature, so a coarse key never seen before proves the
        signature was never seen either: the probe can neither resume a
        template nor find a recurrence, and is accounted futile without
        building the signature.
        """
        self._probe_at = -1
        coarse = hash(self._coarse_key())
        if self._gated(coarse):
            self._remember(self._coarse_seen, coarse, cycle)
            self.profile.probes_gated += 1
            self._note_futile(1)
            return False
        # The coarse key's second sighting takes over the first, deferred
        # one (if a sighting was deferred: a saved template's key is not).
        deferred = self._coarse_seen.get(coarse)
        self._remember(self._coarse_seen, coarse, None)
        self.profile.probes_full += 1
        sig = self._signature(cycle, self.machine.coproc._seq)
        for template in reversed(self._saved):
            if template.sig == sig:
                self._template = template
                self._arm_site = template.site
                self.state = self._REPLAY
                return True
        self._note_futile(1)
        sig_hash = hash(sig)
        seen = self._sig_seen.get(sig_hash)
        if seen is None:
            # New to the exact map.  The sighting the gate deferred stands
            # in as this signature's previous occurrence, so a steady loop
            # still arms on its third evenly spaced sighting; a wrong guess
            # only skews one recorded distance.
            seen = (cycle if deferred is None else deferred, 0)
        seen_cycle, seen_dist = seen
        dist = cycle - seen_cycle
        self._remember(self._sig_seen, sig_hash, (cycle, dist))
        # Requiring the same recurrence distance twice in a row filters
        # out coincidental state matches (and hash collisions): a true
        # period produces evenly spaced recurrences.
        if dist != seen_dist or not (MIN_PERIOD <= dist <= MAX_PERIOD):
            return False
        self._arm_site = self._probe_site
        self._period = dist
        self._begin_recording(cycle, sig, coarse)
        return False

    def _gated(self, coarse: int) -> bool:
        """True when ``coarse`` matches no earlier probe and no saved
        template (whose keys must outlive a reset of the seen-map)."""
        return coarse not in self._coarse_seen and all(
            template.coarse != coarse for template in self._saved
        )

    @staticmethod
    def _remember(seen: Dict[int, object], key: int, value: object) -> None:
        """Record a sighting in a bounded map (hashes, not the tuples
        themselves: 8192 sixteen-core keys would cost megabytes)."""
        seen[key] = value
        if len(seen) > 8192:
            # Warm-up churn: every probe sees a fresh state.  Reset rather
            # than grow without bound; steady state repopulates the map
            # within one period (a reset only defers detection).
            seen.clear()

    def _note_futile(self, weight: int) -> None:
        """Account probe/recording effort that produced no replay."""
        self._futile_probes += weight
        if self._futile_probes >= FUTILE_PROBE_LIMIT:
            self._futile_probes = 0
            if self._probe_stride < MAX_PROBE_STRIDE:
                self._probe_stride *= 2

    # --- recording hooks (installed only while state is RECORD) -------------

    def on_exec(self, core: int, pc: int, outcome: str, target: int) -> None:
        self._events[-1].append(("x", core, pc, outcome, target))

    def on_dispatch(self, core: int, entry) -> None:
        amount = entry.flops if entry.kind is EntryKind.COMPUTE else entry.nbytes
        self._events[-1].append(
            (
                "d",
                core,
                entry.seq - self._base_seq,
                entry.vl_lanes,
                amount,
                entry.complete_cycle - self._base,
            )
        )

    def on_commit(self, core: int, entry) -> None:
        self._events[-1].append(("c", core, entry.seq - self._base_seq))

    def on_stall(self, core: int, reason) -> None:
        self._events[-1].append(("s", core, reason))

    def on_overhead(self, core: int, kind: str) -> None:
        self._events[-1].append(("o", core, kind))

    def on_emsimd(self) -> None:
        # A lane reconfiguration / phase marker executed: not steady state.
        self._poisoned = True

    def on_cts_switch(self, owner: int, until: int, blocked_until: int) -> None:
        self._events[-1].append(
            ("t", owner, until - self._base, blocked_until - self._base)
        )

    def on_core_done(self) -> None:
        self._poisoned = True

    def on_fast_forward(self, skipped: int, capped: bool) -> None:
        if capped:
            # The jump was cut short by the deadlock horizon or the cycle
            # budget — absolute-time state leaked into the schedule.
            self._poisoned = True
            return
        self._events[-1].append(("f", skipped))
        self._events.extend([] for _ in range(skipped))

    # --- per-cycle driver ---------------------------------------------------

    def on_cycle(
        self, cycle: int, max_cycles: int, last_progress: int
    ) -> Tuple[int, int]:
        """Called at the top of every run-loop iteration.

        Returns the (possibly advanced) cycle and last-progress pair the
        run loop should continue from.
        """
        if self.state is self._RECORD:
            offset = cycle - self._base
            if offset == self._period:
                self._finalize()
                if self.state is self._REPLAY:
                    return self._replay_span(cycle, max_cycles, last_progress)
            elif offset > self._period or offset != len(self._events) or self._poisoned:
                self._abandon_recording(cycle)
            else:
                self._events.append([])
        elif self._probe_at == cycle:
            if self._probe(cycle):
                return self._replay_span(cycle, max_cycles, last_progress)
        elif self._probe_at >= 0 and cycle > self._probe_at:
            self._probe_at = -1  # the run loop skipped past the probe point
        return cycle, last_progress

    # --- recording lifecycle ------------------------------------------------

    def _begin_recording(self, cycle: int, sig: tuple, coarse: int) -> None:
        self._probe_at = -1
        self.state = self._RECORD
        self._base = cycle
        self._base_seq = self.machine.coproc._seq
        self._events = [[]]
        self._poisoned = False
        self._sig = sig
        self._sig_coarse = coarse
        machine = self.machine
        machine.coproc.recorder = self
        machine.metrics.recorder = self
        machine._loop_recorder = self
        for core in machine.cores:
            if core is not None:
                core.recorder = self

    def _unhook(self) -> None:
        machine = self.machine
        machine.coproc.recorder = None
        machine.metrics.recorder = None
        machine._loop_recorder = None
        for core in machine.cores:
            if core is not None:
                core.recorder = None

    def _abandon_recording(self, cycle: int) -> None:
        self._unhook()
        self.state = self._IDLE
        self._events = []
        self._cooldown_until = cycle + COOLDOWN_CYCLES
        # A wasted recording costs far more than a probe.
        self._note_futile(16)

    def _finalize(self) -> None:
        self._unhook()
        boundary = self._base + self._period
        if self._poisoned:
            self._abandon_recording(boundary)
            return
        timed: List[Tuple[int, tuple]] = []
        stall_totals: Dict[tuple, int] = {}
        overhead_totals: Dict[tuple, int] = {}
        progress_offset = -1
        has_exec = False
        for offset, cycle_events in enumerate(self._events):
            counters_this_cycle: List[tuple] = []
            for event in cycle_events:
                tag = event[0]
                if tag == "s":
                    key = (event[1], event[2])
                    stall_totals[key] = stall_totals.get(key, 0) + 1
                    counters_this_cycle.append(event)
                elif tag == "o":
                    key = (event[1], event[2])
                    overhead_totals[key] = overhead_totals.get(key, 0) + 1
                    counters_this_cycle.append(event)
                elif tag == "f":
                    # Each elided cycle repeats this cycle's counter events.
                    skipped = event[1]
                    for counter in counters_this_cycle:
                        key = (counter[1], counter[2])
                        if counter[0] == "s":
                            stall_totals[key] += skipped
                        else:
                            overhead_totals[key] += skipped
                else:
                    timed.append((offset, event))
                    if tag != "t":
                        progress_offset = offset
                        has_exec = has_exec or tag == "x"
        if not has_exec:
            self._abandon_recording(boundary)
            return
        self._template = _Template(
            period=self._period,
            timed=timed,
            stall_totals=stall_totals,
            overhead_totals=overhead_totals,
            sig=self._sig,
            coarse=self._sig_coarse,
            progress_offset=progress_offset,
            site=self._arm_site,
        )
        self._events = []
        self.profile.templates_built += 1
        self.state = self._REPLAY

    def _retire_template(self, succeeded: bool) -> None:
        site = self._arm_site
        template = self._template
        if site is not None:
            if succeeded:
                self._site_fails.pop(site, None)
                self._suspended.pop(site, None)
            else:
                fails = self._site_fails.get(site, 0) + 1
                self._site_fails[site] = fails
                if fails >= MAX_SITE_FAILS:
                    # Usually warm-up drift or a loop whose register state
                    # (not timing state) is aperiodic — bench the site for a
                    # while and let it retry once the machine has settled.
                    self._suspended[site] = self._base + SUSPEND_CYCLES
                    self._site_fails[site] = 0
                    self._saved = [t for t in self._saved if t.site != site]
        if succeeded and template is not None:
            # Keep proven templates for direct resumption (MRU order).
            if template in self._saved:
                self._saved.remove(template)
            self._saved.append(template)
            del self._saved[:-4]
        self._template = None
        self._arm_site = None
        self.state = self._IDLE

    # --- replay -------------------------------------------------------------

    def _replay_span(
        self, cycle: int, max_cycles: int, last_progress: int
    ) -> Tuple[int, int]:
        """Replay verified whole periods starting at boundary ``cycle``."""
        template = self._template
        assert template is not None
        replayed = 0
        aborted = False
        while cycle + template.period <= max_cycles:
            if self._signature(cycle, self.machine.coproc._seq) != template.sig:
                break
            if not self._replay_period(cycle):
                aborted = True
                break
            last_progress = cycle + template.progress_offset
            cycle += template.period
            replayed += 1
            self.profile.replayed_periods += 1
            self.profile.replayed_cycles += template.period
        if aborted:
            self.profile.replay_aborts += 1
        period = template.period
        self._retire_template(succeeded=replayed > 0)
        if replayed > 0:
            # The fast path is paying off — probe at full rate again.
            self._probe_stride = 1
            self._futile_probes = 0
        if aborted:
            # The divergence point (an array pass's tail chunk, a phase
            # change) spans at most about one period; a short cooldown
            # skips it without losing the next pass's interior.
            self._cooldown_until = cycle + period
        elif replayed == 0:
            # The recurrence that armed this recording was coincidental or
            # the machine is still drifting — back off properly.
            self._cooldown_until = cycle + COOLDOWN_CYCLES
            self._note_futile(16)
        return cycle, last_progress

    def _coarse_key(self) -> tuple:
        """O(cores) projection of :meth:`_signature` (the probe gate's key).

        Every component is a function of the signature — a pool's
        occupancy of its row tuple, the rest verbatim — so equal
        signatures have equal coarse keys.
        """
        coproc = self.machine.coproc
        return (
            tuple(len(pool._entries) for pool in coproc.pools),
            tuple(None if core is None else core.pc for core in self.machine.cores),
            tuple(coproc.renamer._free),
            tuple(coproc.renamer._held),
            coproc._rotate,
        )

    def _signature(self, cycle: int, base_seq: int) -> tuple:
        """Decision-relevant machine state, relative to ``cycle``/``base_seq``.

        Captures exactly the state that determines future engine decisions
        (dispatch, commit, stall attribution, scalar stalls) *relative* to
        the boundary: in-flight windows with readiness-gating deps and
        completion offsets, pending scalar write-backs, store-queue
        occupancy, renamer freelists, the dispatch-fairness rotation, done
        flags, open-phase flags and (under CTS) the arbitration window.
        Functional state that only *evolves* — register values, cache tags,
        MOB contents, bandwidth queues — is deliberately excluded: replay
        executes the real operations against it, and completion-time
        verification catches any timing-visible difference.
        """
        machine = self.machine
        coproc = machine.coproc
        pools = []
        for pool in coproc.pools:
            rows = []
            for entry in pool._entries:
                waiting = entry.state is EntryState.WAITING
                rows.append(
                    (
                        entry.seq - base_seq,
                        entry.kind,
                        entry.state,
                        None if waiting else entry.complete_cycle - cycle,
                        entry.holds_phys_reg,
                        tuple(
                            dep.seq - base_seq
                            for dep in entry.deps
                            if dep.state is EntryState.WAITING
                            or dep.complete_cycle > cycle
                        ),
                    )
                )
            pools.append(tuple(rows))
        cores = []
        for core in machine.cores:
            if core is None:
                cores.append(None)
                continue
            pending = []
            for name, entry in core._pending_scalar.items():
                done = (
                    entry.state is not EntryState.WAITING
                    and entry.complete_cycle <= cycle
                )
                pending.append(
                    (name, "done" if done else (entry.state, entry.complete_cycle - cycle))
                )
            pending.sort()
            cores.append((core.pc, core.halted, tuple(pending)))
        stq = []
        for lsu in coproc.lsus:
            # Normalising drain: idempotent, and exactly what this cycle's
            # engine step would do first anyway.
            lsu.on_cycle(cycle)
            stq.append(tuple(c - cycle for c in lsu._store_completions))
        sig = (
            tuple(pools),
            tuple(cores),
            tuple(stq),
            tuple(coproc.renamer._free),
            tuple(coproc.renamer._held),
            coproc._rotate,
            tuple(machine._done),
            tuple(p is not None for p in machine.metrics._open_phase),
        )
        if coproc.mode is SharingMode.COARSE_TEMPORAL:
            sig += (
                (
                    coproc._cts_owner,
                    max(coproc._cts_until - cycle, 0),
                    max(coproc._cts_blocked_until - cycle, 0),
                ),
            )
        return sig

    def _replay_period(self, base: int) -> bool:
        """Apply one template period starting at ``base``; True on success."""
        machine = self.machine
        coproc = machine.coproc
        metrics = machine.metrics
        renamer = coproc.renamer
        template = self._template
        base_seq = coproc._seq
        live = {}
        for pool in coproc.pools:
            for entry in pool._entries:
                live[entry.seq - base_seq] = entry
        txn = MachineTxn(machine)
        # Hot-loop locals: the timed stream runs tens of thousands of events
        # per span, so attribute lookups are hoisted out of the loop.
        compute_latency = coproc.config.vector.compute_latency
        cores = machine.cores
        pools = coproc.pools
        lsus = coproc.lsus
        live_get = live.get
        waiting = EntryState.WAITING
        issued = EntryState.ISSUED
        compute = EntryKind.COMPUTE
        store = EntryKind.STORE
        try:
            for offset, event in template.timed:
                cycle = base + offset
                tag = event[0]
                if tag == "d":
                    _, core_id, rel_seq, vl, amount, rel_complete = event
                    entry = live_get(rel_seq)
                    if (
                        entry is None
                        or entry.state is not waiting
                        or entry.vl_lanes != vl
                        or not entry.ready(cycle)
                    ):
                        raise _Mismatch("dispatch")
                    if entry.kind is compute:
                        if entry.flops != amount:
                            raise _Mismatch("flops")
                        if entry.writes_vreg and not renamer.try_allocate(core_id):
                            raise _Mismatch("rename")
                        entry.holds_phys_reg = entry.writes_vreg
                        entry.state = issued
                        entry.complete_cycle = cycle + (
                            LONG_LATENCY if entry.long_latency else compute_latency
                        )
                        metrics.on_compute_dispatch(
                            core_id, entry.vl_lanes, entry.flops, cycle
                        )
                    else:
                        if entry.nbytes != amount:
                            raise _Mismatch("nbytes")
                        is_store = entry.kind is store
                        lsu = lsus[core_id]
                        if is_store:
                            if lsu.store_queue_full(cycle):
                                raise _Mismatch("stq")
                        elif not renamer.try_allocate(core_id):
                            raise _Mismatch("rename")
                        entry.holds_phys_reg = not is_store
                        result = lsu.issue(entry.addr, entry.nbytes, cycle, is_store)
                        # The keystone check: every completion must land at
                        # its recorded offset, which in turn proves the
                        # engine would repeat every scripted decision
                        # (readiness, commits, stalls).
                        if result.complete_cycle - base != rel_complete:
                            raise _Mismatch("completion")
                        entry.state = issued
                        entry.complete_cycle = result.complete_cycle
                        metrics.on_ldst_dispatch(
                            core_id, entry.vl_lanes, entry.nbytes, cycle
                        )
                elif tag == "x":
                    _, core_id, pc, outcome, target = event
                    core = cores[core_id]
                    if core is None or core.halted:
                        raise _Mismatch("halted")
                    # Labels occupy no retire slot: the interpreter skips
                    # them inline without recording an event, so replay must
                    # hop over them the same way.
                    table = core.decoded
                    pc_now = core.pc
                    while pc_now < len(table) and table[pc_now] is None:
                        pc_now += 1
                    core.pc = pc_now
                    if pc_now != pc:
                        raise _Mismatch("pc")
                    before_seq = coproc._seq
                    got, _kind = table[pc].run(cycle)
                    if got != outcome:
                        raise _Mismatch("outcome")
                    if got == "branch":
                        if core._branch_target != target:
                            raise _Mismatch("target")
                        core.pc = target
                    else:
                        core.pc = pc + 1
                    core.retired += 1
                    if coproc._seq != before_seq:
                        created = pools[core_id]._entries[-1]
                        live[created.seq - base_seq] = created
                elif tag == "c":
                    _, core_id, rel_seq = event
                    pool_entries = pools[core_id]._entries
                    entry = live_get(rel_seq)
                    if (
                        entry is None
                        or not pool_entries
                        or pool_entries[0] is not entry
                        or entry.state is waiting
                        or entry.complete_cycle > cycle
                    ):
                        raise _Mismatch("commit")
                    pools[core_id].pop_head_for_replay()
                    if entry.holds_phys_reg:
                        renamer.release(core_id)
                else:  # "t" — CTS ownership switch
                    _, owner, rel_until, rel_blocked = event
                    coproc._cts_owner = owner
                    coproc._cts_until = base + rel_until
                    coproc._cts_blocked_until = base + rel_blocked
                    coproc.cts_switches += 1
        except (_Mismatch, SimulationError):
            # SimulationError means a handler diverged hard (e.g. an array
            # overrun the recording never hit) — same treatment: the period
            # is not steady state, rewind and let the slow path run it.
            txn.rollback()
            return False
        # Counter events (stalls, EM-SIMD overhead cycles) are pure
        # increments, pre-summed at template build; apply them in bulk.
        for (core_id, reason), count in template.stall_totals.items():
            metrics.stalls[core_id][reason] += count
        for (core_id, kind), count in template.overhead_totals.items():
            if kind == "monitor":
                metrics.monitor_cycles[core_id] += count
            else:
                metrics.reconfig_cycles[core_id] += count
        # The dispatch-fairness rotation advances once per stepped cycle and
        # once per fast-forwarded cycle — exactly ``period`` in total.
        if coproc.mode is not SharingMode.COARSE_TEMPORAL:
            coproc._rotate = (coproc._rotate + template.period) % coproc.config.num_cores
        txn.commit()
        if machine.auditor is not None:
            # Replay-template/live-state agreement: the committed period's
            # resulting state must satisfy every structural invariant.
            machine.auditor.check_replay_commit(base + template.period, template)
        return True
