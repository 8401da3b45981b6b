"""Sequential, middleware-free execution — the CONT-V substrate.

The paper's control implementation (CONT-V) runs the same pipeline stages
but *without* RADICAL-Pilot: tasks execute one after the other on the node,
each holding only the resources it needs, with no overlap between pipelines
and no adaptive decision-making.  :class:`SequentialRunner` reproduces that
execution model on the same simulated platform so that utilization and
makespan comparisons against the pilot runtime are apples-to-apples (same
node, same duration model, same profiler).
"""

from __future__ import annotations

from repro.hpc.platform import ComputePlatform
from repro.runtime.durations import DurationModel
from repro.runtime.task import Task, TaskDescription

__all__ = ["SequentialRunner"]


class SequentialRunner:
    """Executes tasks strictly one at a time on a simulated platform."""

    def __init__(
        self,
        platform: ComputePlatform,
        durations: DurationModel,
    ) -> None:
        self._platform = platform
        self._durations = durations

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    def run_task(self, description: TaskDescription) -> Task:
        """Execute one task to completion, advancing simulated time.

        The task's devices are allocated, the payload runs, time advances by
        the modelled duration, and the devices are released — all before the
        call returns.  This is the blocking, script-like execution style of
        the control implementation.
        """
        task = Task(description)
        now = self._platform.now
        task.allocation = self._platform.allocator.allocate(description.request)
        task.start_time = now

        duration = self._durations.duration(description)
        self._platform.profiler.record_phase("running", now, now + duration)
        # Advance virtual time past the task's execution window.
        self._platform.loop.run_until(now + duration)
        task.finish(self._platform)
        return task
