"""The agent: asynchronous placement and execution of tasks inside a pilot.

The agent is the component of the pilot runtime that lives "on the machine":
it pulls submitted tasks, places them onto free devices through a
:class:`~repro.hpc.scheduler.PlacementScheduler`, models the per-task
execution overheads RADICAL-Pilot reports (sandbox / launch-script creation,
i.e. "Exec setup" in Fig 5), runs the surrogate payload, and releases the
devices when the task completes.  Everything happens inside the platform's
discrete-event loop, so any number of tasks execute concurrently in simulated
time.

A task costs the loop one event, its completion.  Placement runs in passes
that coalesce every submit and release of one instant: a pass runs at the end
of the completion event that freed the devices, after its callbacks have
submitted what follows, unless another event is due at that same instant;
then, as for a submit outside any completion (the launch), the pass is
scheduled at that instant behind every completion due there.  Either way it
places the same tasks as a pass scheduled after every completion.
"""

from __future__ import annotations

import functools
from typing import Callable, List

from repro.hpc.allocation import Allocation
from repro.hpc.filesystem import SANDBOX_SETUP_SECONDS
from repro.hpc.platform import ComputePlatform
from repro.hpc.scheduler import PlacementScheduler
from repro.runtime.durations import DurationModel
from repro.runtime.task import Task

__all__ = ["Agent"]

#: Event-loop priority used for completion events (fires before placements).
_PRIORITY_COMPLETE = 0
#: Event-loop priority used for placement attempts (fires after releases).
_PRIORITY_PLACE = 10


class Agent:
    """Schedules and executes tasks on a :class:`ComputePlatform`.

    A waiting task is held by the scheduler queue only; a running task is
    held by its pending completion event.  Completion callbacks are the only
    way to observe a finished task, which the agent then forgets.

    ``window`` is the placement scheduler's lookahead past a blocked head of
    the queue: 0 is FIFO (see :func:`repro.hpc.scheduler.placement_window`).
    """

    def __init__(
        self, platform: ComputePlatform, durations: DurationModel, window: int = 0
    ) -> None:
        self._platform = platform
        self._loop = platform.loop
        self._profiler = platform.profiler
        self._durations = durations
        # "Exec setup" (Fig 5): the sandbox's few small files on the shared
        # FS.  The speedup does not change during a run.
        self._setup_seconds = SANDBOX_SETUP_SECONDS / max(1.0, durations.speedup)
        self._scheduler = PlacementScheduler(platform.allocator, window)
        self._completion_callbacks: List[Callable[[Task], None]] = []
        self._placement_scheduled = False

    # -- introspection ---------------------------------------------------- #

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    def on_completion(self, callback: Callable[[Task], None]) -> Callable[[], None]:
        """Register a callback invoked whenever a task finishes.

        Returns a zero-argument remover for exactly the callable stored here:
        a wrapper around registration (a tracer's, say) may store another
        callable than the caller passed.
        """
        self._completion_callbacks.append(callback)
        return functools.partial(self._completion_callbacks.remove, callback)

    # -- submission -------------------------------------------------------- #

    def submit(self, task: Task) -> None:
        """Accept a task for scheduling and (eventually) execution.

        Raises
        ------
        SchedulingError
            If the task's request could never fit on the platform; the task
            is then left untouched and not kept.
        """
        self._scheduler.submit(task)
        self._request_placement()

    # -- internal machinery ------------------------------------------------ #

    def _request_placement(self) -> None:
        """Schedule a placement pass at the current sim time (coalesced)."""
        if self._placement_scheduled:
            return
        self._placement_scheduled = True
        self._loop.schedule(0.0, self._placement_pass, priority=_PRIORITY_PLACE)

    def _placement_pass(self) -> None:
        self._placement_scheduled = False
        for task, allocation in self._scheduler.try_place():
            self._start_task(task, allocation)

    def _start_task(self, task: Task, allocation: Allocation) -> None:
        loop = self._loop
        now = loop.now
        setup_seconds = self._setup_seconds
        run_seconds = self._durations.duration(task.description)

        task.allocation = allocation
        task.start_time = now

        profiler = self._profiler
        profiler.record_phase("exec_setup", now, now + setup_seconds)
        profiler.record_phase("running", now + setup_seconds, now + setup_seconds + run_seconds)
        # Due at ``now + (setup + run)``: seeded outputs pin this rounding,
        # which may differ in the last bit from the phase's end above.
        loop.schedule_at(
            now + (setup_seconds + run_seconds),
            self._complete_task,
            task,
            priority=_PRIORITY_COMPLETE,
        )

    def _complete_task(self, task: Task) -> None:
        task.finish(self._platform)
        # What the callbacks submit joins the pass that follows them: one
        # already due at this instant, or the one this event ends with.
        scheduled = self._placement_scheduled
        self._placement_scheduled = True
        try:
            for callback in list(self._completion_callbacks):
                callback(task)
        finally:
            self._placement_scheduled = scheduled
        loop = self._loop
        if loop.next_time > loop.now:
            # Nothing else is due at this instant, so a pass scheduled now
            # would be the next event popped: run it here instead.
            self._placement_pass()
        else:
            self._request_placement()
