"""Execution-time accounting and phase breakdown (Fig 5 legend, Table I time).

Two time quantities appear in the paper:

* the **execution time** column of Table I — "the total time taken by all
  tasks to finish the execution on the compute resources", i.e. the sum of
  task runtimes (IM-RP is *larger* here because it evaluates more
  trajectories);
* the **makespan** visible on the x-axes of Figs 4 and 5 — the wall-clock
  span of the run, where IM-RP's concurrency pays off.

Fig 5 additionally breaks the runtime down into Bootstrap (pilot startup),
Exec setup (sandbox/launch-script creation) and Running (task execution);
:func:`makespan_report` reproduces that breakdown from the profiler's phase
totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import SimulationError
from repro.hpc.profiling import ExecutionProfiler

__all__ = ["MakespanReport", "makespan_report"]

_PHASES = ("bootstrap", "exec_setup", "running")


@dataclass(frozen=True)
class MakespanReport:
    """Wall-clock and per-phase time accounting for one campaign run."""

    approach: str
    makespan_hours: float
    total_task_hours: float
    phase_hours: Dict[str, float]
    n_tasks: int
    mean_task_hours: float


def makespan_report(
    profiler: ExecutionProfiler, approach: str = "", time_scale: float = 1.0
) -> MakespanReport:
    """Build a :class:`MakespanReport` from a profiler trace.

    ``time_scale`` converts simulated seconds back into modelled seconds when
    the campaign compressed durations (pass its ``duration_speedup``).
    """
    intervals = profiler.resource_intervals
    if not intervals:
        raise SimulationError("profiler has no recorded execution to analyse")
    total_task_seconds = sum(interval.duration for interval in intervals)
    phase_totals = profiler.phase_totals(_PHASES)
    return MakespanReport(
        approach=approach,
        makespan_hours=profiler.makespan() * time_scale / 3600.0,
        total_task_hours=total_task_seconds * time_scale / 3600.0,
        phase_hours={
            phase: seconds * time_scale / 3600.0
            for phase, seconds in phase_totals.items()
        },
        n_tasks=len(intervals),
        mean_task_hours=(total_task_seconds / len(intervals)) * time_scale / 3600.0,
    )
