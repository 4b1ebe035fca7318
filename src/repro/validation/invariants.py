"""Opt-in runtime invariant audits (``REPRO_AUDIT`` / ``--audit``).

When enabled, an :class:`InvariantAuditor` is attached to the machine at
construction and re-checks the co-processor's structural invariants —

* **lane conservation**: under spatial sharing, the lanes the resource
  table's ``<VL>`` registers grant plus ``<AL>`` equal the total;
* **ROB retire ordering**: every instruction pool holds its entries in
  strictly increasing sequence order, dependences point only at older
  instructions, and transmit/commit counters reconcile with occupancy;
* **physical-register leak-freedom**: each core's renamer hold count
  equals the number of in-flight pool entries holding a physical
  register, and every freelist stays within ``[0, capacity]``;
* **bandwidth accounting**: every per-level regulator serves requests at
  or after their arrival, advances its queue monotonically within a
  request, and keeps its counters consistent;
* **one event per core-cycle**: a core records at most one stall and at
  most one EM-SIMD overhead event per cycle (what the fast engine's
  one-slot sleep capture rests on), and under temporal sharing the
  components are asleep all together or not at all.

Every check is strictly read-only — enabling the audit cannot perturb the
simulation, so audited runs stay bit-identical to unaudited ones (the
validation tests assert this).  A violated invariant raises
:class:`~repro.common.errors.InvariantViolation`.
"""

from __future__ import annotations

import os
import weakref
from typing import Set, Tuple

from repro.common.errors import InvariantViolation, ProtocolError
from repro.coproc.sharing import SharingMode


def audit_enabled() -> bool:
    """Whether machines self-audit by default (``REPRO_AUDIT`` non-empty)."""
    return bool(os.environ.get("REPRO_AUDIT"))


class InvariantAuditor:
    """Read-only consistency checker wired into one :class:`Machine`.

    Construction installs the auditor on the machine's metrics, renamer,
    LSUs and bandwidth regulators (their per-call hooks), and
    :meth:`check_machine` runs the full structural audit — called by
    ``Machine.step`` every simulated cycle.  The machine is held weakly:
    its parts point at the auditor, and a finished machine must be freed by
    reference count.
    """

    def __init__(self, machine) -> None:
        self.machine = weakref.proxy(machine)
        self.checks = 0
        #: ``(core, "stall" | "overhead")`` records since the last
        #: :meth:`check_machine`.
        self._core_events: Set[Tuple[int, str]] = set()
        machine.metrics.auditor = self
        coproc = machine.coproc
        coproc.renamer.auditor = self
        for lsu in coproc.lsus:
            lsu.auditor = self
        for regulator in self._regulators():
            regulator.auditor = self

    def _regulators(self):
        memory = self.machine.coproc.memory
        return (memory.vec_cache_bw, memory.l2_bw, memory.dram_bw)

    @staticmethod
    def _fail(message: str) -> None:
        raise InvariantViolation(f"invariant audit: {message}")

    # --- per-call hooks -----------------------------------------------------

    def on_renamer(self, renamer) -> None:
        """After an allocate/release: freelists stay within bounds."""
        self.checks += 1
        for slot, free in enumerate(renamer._free):
            if not 0 <= free <= renamer._capacity[slot]:
                self._fail(
                    f"renamer slot {slot} freelist {free} outside "
                    f"[0, {renamer._capacity[slot]}]"
                )
        for core, held in enumerate(renamer._held):
            if held < 0:
                self._fail(f"core {core} holds {held} physical registers")
            if held > renamer._hold_cap:
                self._fail(
                    f"core {core} holds {held} > fairness cap {renamer._hold_cap}"
                )

    def on_lsu_issue(self, lsu, cycle, result) -> None:
        """After an ``issue``: completions cannot precede their request."""
        self.checks += 1
        if result.complete_cycle < cycle:
            self._fail(
                f"core {lsu.core_id} access completes at "
                f"{result.complete_cycle} before issue cycle {cycle}"
            )
        completions = list(lsu._store_queue)
        if any(b < a for a, b in zip(completions, completions[1:])):
            self._fail(
                f"core {lsu.core_id} store queue retires out of FIFO order: "
                f"{completions}"
            )

    def on_bandwidth_serve(self, regulator, nbytes, earliest, start, finish) -> None:
        """After a ``serve``: the channel queue only moves forward."""
        self.checks += 1
        if start < earliest:
            self._fail(
                f"{regulator.name} channel started a request at {start} "
                f"before its arrival at {earliest}"
            )
        expected = start + nbytes / regulator.bytes_per_cycle
        if finish != expected or finish < start:
            self._fail(
                f"{regulator.name} channel finish {finish} inconsistent with "
                f"start {start} + {nbytes}B @ {regulator.bytes_per_cycle}B/cyc"
            )
        if regulator._next_free != finish:
            self._fail(
                f"{regulator.name} channel queue tail {regulator._next_free} "
                f"!= last finish {finish}"
            )

    def on_core_event(self, core: int, kind: str) -> None:
        """After a stall or overhead record: the first of its kind for
        ``core`` since the last end-of-cycle audit."""
        self.checks += 1
        if (core, kind) in self._core_events:
            self._fail(f"core {core} recorded two {kind} events in one cycle")
        self._core_events.add((core, kind))

    # --- full-machine audit -------------------------------------------------

    def check_machine(self, cycle: int) -> None:
        """The end-of-cycle structural audit."""
        self.checks += 1
        self._core_events.clear()
        self._check_lanes()
        self._check_pools(cycle)
        self._check_renamer_leaks()
        self._check_bandwidth()
        self._check_coupled_sleep()

    def _check_lanes(self) -> None:
        coproc = self.machine.coproc
        if coproc.mode is SharingMode.SPATIAL:
            try:
                coproc.resource_table.check_invariant()  # sum(<VL>) + <AL>
            except ProtocolError as exc:
                self._fail(f"lane conservation: {exc}")

    def _check_pools(self, cycle: int) -> None:
        for pool in self.machine.coproc.pools:
            entries = pool._entries
            if pool.transmitted - pool.committed != len(entries):
                self._fail(
                    f"core {pool.core_id} pool occupancy {len(entries)} != "
                    f"{pool.transmitted} transmitted - {pool.committed} committed"
                )
            if len(entries) > pool.capacity:
                self._fail(
                    f"core {pool.core_id} pool holds {len(entries)} > "
                    f"capacity {pool.capacity}"
                )
            last_seq = None
            for entry in entries:
                if entry.core != pool.core_id:
                    self._fail(
                        f"core {entry.core} entry seq {entry.seq} in core "
                        f"{pool.core_id}'s pool"
                    )
                if last_seq is not None and entry.seq <= last_seq:
                    self._fail(
                        f"core {pool.core_id} pool out of program order: "
                        f"seq {entry.seq} after {last_seq} (retire ordering)"
                    )
                last_seq = entry.seq
                for dep in entry.deps:
                    if dep.seq >= entry.seq:
                        self._fail(
                            f"entry seq {entry.seq} depends on younger/equal "
                            f"seq {dep.seq}"
                        )

    def _check_renamer_leaks(self) -> None:
        coproc = self.machine.coproc
        renamer = coproc.renamer
        self.on_renamer(renamer)
        self.checks -= 1  # on_renamer counted itself
        holders = [0] * coproc.config.num_cores
        for pool in coproc.pools:
            for entry in pool._entries:
                if entry.holds_phys_reg:
                    holders[pool.core_id] += 1
        slot_held = {}
        for core in range(coproc.config.num_cores):
            if renamer._held[core] != holders[core]:
                self._fail(
                    f"core {core} renamer holds {renamer._held[core]} physical "
                    f"registers but {holders[core]} in-flight entries hold one "
                    f"(leak or double release)"
                )
            slot = renamer._slot(core)
            slot_held[slot] = slot_held.get(slot, 0) + renamer._held[core]
        for slot, held in slot_held.items():
            if renamer._free[slot] + held != renamer._capacity[slot]:
                self._fail(
                    f"renamer slot {slot}: {renamer._free[slot]} free + "
                    f"{held} held != capacity {renamer._capacity[slot]}"
                )

    def _check_coupled_sleep(self) -> None:
        machine = self.machine
        if (
            machine.coproc.mode is SharingMode.TEMPORAL
            and 0 < machine._asleep_count < machine._live_count
        ):
            self._fail(
                f"temporal sharing with {machine._asleep_count} of "
                f"{machine._live_count} live components asleep (all or none)"
            )

    def _check_bandwidth(self) -> None:
        for regulator in self._regulators():
            if regulator._next_free < 0:
                self._fail(
                    f"{regulator.name} channel queue tail is negative: "
                    f"{regulator._next_free}"
                )
