"""Resource-utilization analysis (Table I columns, Figs 4 and 5).

The profiler records which devices each task occupied and when; this module
reduces those traces to the average CPU and GPU utilization percentages of
Table I and the binned utilization timelines plotted in Figs 4 and 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.exceptions import SimulationError
from repro.hpc.profiling import ExecutionProfiler

__all__ = ["UtilizationReport", "utilization_report"]


@dataclass(frozen=True)
class UtilizationReport:
    """Average utilization plus binned timelines for one campaign run."""

    approach: str
    cpu_utilization: float
    gpu_utilization: float
    makespan_hours: float
    timeline_hours: Tuple[float, ...]
    cpu_timeline: Tuple[float, ...]
    gpu_timeline: Tuple[float, ...]
    per_gpu_busy_hours: Dict[str, float]

    @property
    def cpu_percent(self) -> float:
        return 100.0 * self.cpu_utilization

    @property
    def gpu_percent(self) -> float:
        return 100.0 * self.gpu_utilization


def utilization_report(
    profiler: ExecutionProfiler,
    approach: str = "",
    n_bins: int = 60,
    time_scale: float = 1.0,
) -> UtilizationReport:
    """Build a :class:`UtilizationReport` from a profiler trace.

    Parameters
    ----------
    profiler:
        The platform profiler after the campaign finished.
    approach:
        Label recorded in the report ("IM-RP", "CONT-V", ...).
    n_bins:
        Number of timeline bins (the figure x-resolution).
    time_scale:
        Multiplier converting simulated seconds into modelled seconds when a
        duration speedup was applied (pass the campaign's
        ``duration_speedup``).

    Raises
    ------
    SimulationError
        If the profiler holds no resource intervals.
    """
    if not profiler.resource_intervals:
        raise SimulationError("profiler has no recorded execution to analyse")
    centers_cpu, cpu_series = profiler.utilization_timeline("cpu", n_bins=n_bins)
    _, gpu_series = profiler.utilization_timeline("gpu", n_bins=n_bins)
    start, _ = profiler.span()
    hours = tuple(
        float((center - start) * time_scale / 3600.0) for center in centers_cpu
    )
    per_gpu = {
        f"{node}:gpu{device}": busy * time_scale / 3600.0
        for (node, device), busy in profiler.gpu_busy_seconds().items()
    }
    return UtilizationReport(
        approach=approach,
        cpu_utilization=float(profiler.cpu_utilization()),
        gpu_utilization=float(profiler.gpu_utilization()),
        makespan_hours=float(profiler.makespan() * time_scale / 3600.0),
        timeline_hours=hours,
        cpu_timeline=tuple(float(v) for v in cpu_series),
        gpu_timeline=tuple(float(v) for v in gpu_series),
        per_gpu_busy_hours=per_gpu,
    )
