"""Bandwidth regulation for shared memory levels.

Each cache level and the DRAM channel can move a fixed number of bytes per
cycle.  :class:`BandwidthRegulator` serialises requests through that budget:
a request arriving while the channel is busy queues behind earlier traffic,
which is exactly how co-running workloads steal bandwidth from each other.
"""

from __future__ import annotations


class BandwidthRegulator:
    """A shared channel moving ``bytes_per_cycle`` bytes per cycle."""

    def __init__(self, name: str, bytes_per_cycle: float) -> None:
        if bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")
        self.name = name
        self.bytes_per_cycle = float(bytes_per_cycle)
        self._next_free = 0.0
        self.bytes_served = 0
        self.requests_served = 0
        #: Runtime invariant auditor (``REPRO_AUDIT``); when set, every
        #: served request re-checks the channel's queue accounting.
        self.auditor = None

    def serve(self, nbytes: int, earliest_cycle: float) -> float:
        """Schedule ``nbytes`` no earlier than ``earliest_cycle``.

        Returns the (fractional) cycle at which the last byte has moved.
        """
        if nbytes <= 0:
            return earliest_cycle
        start = max(self._next_free, float(earliest_cycle))
        finish = start + nbytes / self.bytes_per_cycle
        self._next_free = finish
        self.bytes_served += nbytes
        self.requests_served += 1
        if self.auditor is not None:
            self.auditor.on_bandwidth_serve(self, nbytes, earliest_cycle, start, finish)
        return finish
