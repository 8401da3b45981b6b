"""Execution tracing and utilization accounting.

Each executed task leaves one :class:`ResourceInterval` row: which devices
it held, and when.  The analysis layer turns these rows into the CPU/GPU
utilization percentages of Table I and the timelines of Figs 4 and 5.  The
phases RADICAL-Pilot reports (bootstrap, exec setup, running) are kept as
per-phase totals, the Bootstrap / Exec setup / Running breakdown of Fig 5:
each recorded phase adds ``end - start`` to its total at once, in recording
order, because float summation order is part of the byte-identity contract.

Rows are recorded when their tasks end, at the simulation clock, so their
ends never decrease; the profiler refuses a row that would break that order.
A utilization window therefore starts its scan at the first row ending at or
after the window's start (a bisection): every row before it ends before the
window and adds nothing, so reading the trailing window of the adaptive
in-flight cap costs the rows that reach into the window, not the whole trace.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import SimulationError
from repro.hpc.resources import PlatformSpec

__all__ = ["ResourceInterval", "ExecutionProfiler"]


class ResourceInterval(NamedTuple):
    """Devices occupied by one task over ``[start, end)``.

    A row is immutable and is its own checkpoint encoding: ``json.dumps``
    writes it as ``[task_id, node, cpu_core_ids, gpu_ids, start, end]``.
    """

    task_id: str
    node: str
    cpu_core_ids: Tuple[int, ...]
    gpu_ids: Tuple[int, ...]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def core_seconds(self) -> float:
        return self.duration * len(self.cpu_core_ids)

    @property
    def gpu_seconds(self) -> float:
        return self.duration * len(self.gpu_ids)


_END = attrgetter("end")


class ExecutionProfiler:
    """Collects resource intervals and phase totals during a simulated run."""

    def __init__(self, platform: PlatformSpec) -> None:
        self._platform = platform
        self._resource_intervals: List[ResourceInterval] = []
        self._phase_totals: Dict[str, float] = {}

    @property
    def resource_intervals(self) -> List[ResourceInterval]:
        return list(self._resource_intervals)

    def record_resource_interval(self, interval: ResourceInterval) -> None:
        """Record that a task occupied devices over an interval.

        Raises
        ------
        SimulationError
            If the interval ends before it starts, or before the previously
            recorded one ends.
        """
        if interval.end < interval.start:
            raise SimulationError(
                f"interval for task {interval.task_id!r} ends before it starts "
                f"({interval.start} > {interval.end})"
            )
        rows = self._resource_intervals
        if rows and interval.end < rows[-1].end:
            raise SimulationError(
                f"interval for task {interval.task_id!r} ends at {interval.end}, "
                f"before the previously recorded one ({rows[-1].end})"
            )
        rows.append(interval)

    def record_phase(self, phase: str, start: float, end: float) -> None:
        """Add the phase interval ``[start, end)`` to ``phase``'s total."""
        if end < start:
            raise SimulationError(
                f"phase {phase!r} ends before it starts ({start} > {end})"
            )
        self._phase_totals[phase] = self._phase_totals.get(phase, 0.0) + (end - start)

    # ------------------------------------------------------------------ #
    # Aggregate accounting
    # ------------------------------------------------------------------ #

    def span(self) -> Tuple[float, float]:
        """``(first_start, last_end)`` over all resource intervals.

        Raises
        ------
        SimulationError
            If nothing was recorded.
        """
        if not self._resource_intervals:
            raise SimulationError("no resource intervals recorded")
        start = min(interval.start for interval in self._resource_intervals)
        end = max(interval.end for interval in self._resource_intervals)
        return start, end

    def makespan(self) -> float:
        """Wall-clock span covered by recorded execution."""
        start, end = self.span()
        return end - start

    def busy_core_seconds(self) -> float:
        return sum(interval.core_seconds for interval in self._resource_intervals)

    def busy_gpu_seconds(self) -> float:
        return sum(interval.gpu_seconds for interval in self._resource_intervals)

    def cpu_utilization(self, window: Optional[Tuple[float, float]] = None) -> float:
        """Average CPU utilization fraction over ``window`` (default: full span)."""
        return self._utilization(kind="cpu", window=window)

    def gpu_utilization(self, window: Optional[Tuple[float, float]] = None) -> float:
        """Average GPU utilization fraction over ``window`` (default: full span)."""
        return self._utilization(kind="gpu", window=window)

    def _utilization(self, kind: str, window: Optional[Tuple[float, float]]) -> float:
        if window is None:
            window = self.span()
        start, end = window
        duration = end - start
        if duration <= 0:
            return 0.0
        rows = self._resource_intervals
        busy = 0.0
        for interval in rows[bisect_left(rows, start, key=_END):]:
            overlap = min(interval.end, end) - max(interval.start, start)
            if overlap <= 0:
                continue
            if kind == "cpu":
                busy += overlap * len(interval.cpu_core_ids)
            elif kind == "gpu":
                busy += overlap * len(interval.gpu_ids)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown resource kind {kind!r}")
        total = (
            self._platform.total_cpu_cores if kind == "cpu" else self._platform.total_gpus
        )
        if total == 0:
            return 0.0
        return busy / (duration * total)

    # ------------------------------------------------------------------ #
    # Timelines (figure series)
    # ------------------------------------------------------------------ #

    def utilization_timeline(
        self, kind: str = "cpu", n_bins: int = 100
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Binned utilization fraction over the recorded span.

        Returns ``(bin_centers, utilization)`` arrays of length ``n_bins``;
        this is the series plotted in Figs 4 and 5 (as a percentage).
        """
        if n_bins < 1:
            raise SimulationError("n_bins must be >= 1")
        start, end = self.span()
        if end <= start:
            raise SimulationError("empty profiling window")
        edges = np.linspace(start, end, n_bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        busy = np.zeros(n_bins, dtype=float)
        total = (
            self._platform.total_cpu_cores if kind == "cpu" else self._platform.total_gpus
        )
        if total == 0:
            return centers, busy
        for interval in self._resource_intervals:
            weight = (
                len(interval.cpu_core_ids) if kind == "cpu" else len(interval.gpu_ids)
            )
            if weight == 0:
                continue
            lo = max(interval.start, start)
            hi = min(interval.end, end)
            if hi <= lo:
                continue
            first = max(0, bisect_right(edges, lo) - 1)
            last = max(0, bisect_right(edges, hi) - 1)
            last = min(last, n_bins - 1)
            for b in range(first, last + 1):
                overlap = min(hi, edges[b + 1]) - max(lo, edges[b])
                if overlap > 0:
                    busy[b] += overlap * weight
        widths = np.diff(edges)
        return centers, busy / (widths * total)

    def gpu_busy_seconds(self) -> Dict[Tuple[str, int], float]:
        """Busy seconds per (node, GPU index)."""
        result: Dict[Tuple[str, int], float] = {}
        for interval in self._resource_intervals:
            for device in interval.gpu_ids:
                key = (interval.node, device)
                result[key] = result.get(key, 0.0) + interval.duration
        return result

    def phase_totals(self, phases: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """Total seconds spent in each phase, in first-recorded order.

        With ``phases``, exactly those keys, a phase never recorded at 0.0.
        """
        if phases is not None:
            return {phase: self._phase_totals.get(phase, 0.0) for phase in phases}
        return dict(self._phase_totals)
