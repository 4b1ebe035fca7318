"""Cycle-bucketed time series used by the metrics layer.

The paper's utilisation figures (Fig. 2(b)-(e), Fig. 14(b)) average lane usage
over buckets of 1000 consecutive cycles.  :class:`BucketSeries` accumulates
per-cycle samples into such buckets without storing every cycle, and
:class:`Timeline` records step changes (e.g. lane-allocation changes) as
``(cycle, value)`` breakpoints.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple


class BucketSeries:
    """Accumulate per-cycle numeric samples into fixed-size cycle buckets."""

    def __init__(self, bucket_cycles: int = 1000) -> None:
        if bucket_cycles < 1:
            raise ValueError("bucket_cycles must be positive")
        self.bucket_cycles = bucket_cycles
        self._sums: List[float] = []
        self._counts: List[int] = []

    def add(self, cycle: int, value: float) -> None:
        """Record ``value`` observed at ``cycle``."""
        index = cycle // self.bucket_cycles
        while len(self._sums) <= index:
            self._sums.append(0.0)
            self._counts.append(0)
        self._sums[index] += value
        self._counts[index] += 1

    def add_bulk(self, cycle: int, total: float, samples: int) -> None:
        """Record ``samples`` observations at ``cycle`` summing to ``total``.

        Bit-equivalent to ``samples`` same-cycle :meth:`add` calls whenever
        ``total`` equals their exact floating-point sum — the batch-execute
        backend's accounting primitive (its callers guarantee exactness by
        summing dyadic values).
        """
        if samples <= 0:
            return
        index = cycle // self.bucket_cycles
        while len(self._sums) <= index:
            self._sums.append(0.0)
            self._counts.append(0)
        self._sums[index] += total
        self._counts[index] += samples

    def averages(self) -> List[float]:
        """Average value in each bucket (0.0 for empty buckets)."""
        return [
            total / count if count else 0.0
            for total, count in zip(self._sums, self._counts)
        ]

    def totals(self) -> List[float]:
        """Sum of samples in each bucket."""
        return list(self._sums)

    def __len__(self) -> int:
        return len(self._sums)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        for index, average in enumerate(self.averages()):
            yield index * self.bucket_cycles, average


class Timeline:
    """A step function recorded as ``(cycle, value)`` breakpoints."""

    def __init__(self) -> None:
        self._points: List[Tuple[int, float]] = []

    def record(self, cycle: int, value: float) -> None:
        """Record that the tracked quantity became ``value`` at ``cycle``.

        Re-recording at the same cycle overwrites (the last write in a cycle
        wins, matching atomic table updates).
        """
        if self._points and self._points[-1][0] == cycle:
            self._points[-1] = (cycle, value)
            return
        if self._points and cycle < self._points[-1][0]:
            raise ValueError("timeline cycles must be non-decreasing")
        if self._points and self._points[-1][1] == value:
            return
        self._points.append((cycle, value))

    def value_at(self, cycle: int) -> float:
        """Value of the step function at ``cycle`` (0.0 before first point)."""
        result = 0.0
        for point_cycle, value in self._points:
            if point_cycle > cycle:
                break
            result = value
        return result

    @property
    def points(self) -> Sequence[Tuple[int, float]]:
        """The recorded breakpoints, oldest first."""
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)
