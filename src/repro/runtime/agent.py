"""The agent: asynchronous placement and execution of tasks inside a pilot.

The agent is the component of the pilot runtime that lives "on the machine":
it pulls submitted tasks, places them onto free devices through a
:class:`~repro.hpc.scheduler.PlacementScheduler`, models the per-task
execution overheads RADICAL-Pilot reports (sandbox / launch-script creation,
i.e. "Exec setup" in Fig 5), runs the surrogate payload, and releases the
devices when the task completes.  Everything happens inside the platform's
discrete-event loop, so any number of tasks execute concurrently in simulated
time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hpc.allocation import Allocation
from repro.hpc.filesystem import SANDBOX_SETUP_SECONDS
from repro.hpc.platform import ComputePlatform
from repro.hpc.scheduler import QueuedRequest, make_scheduler
from repro.runtime.durations import DurationModel
from repro.runtime.states import TaskState
from repro.runtime.task import Task

__all__ = ["AgentConfig", "Agent"]

#: Event-loop priority used for completion events (fires before placements).
_PRIORITY_COMPLETE = 0
#: Event-loop priority used for placement attempts (fires after releases).
_PRIORITY_PLACE = 10


@dataclass(frozen=True)
class AgentConfig:
    """Agent tuning knobs.

    Attributes
    ----------
    scheduler_policy:
        ``"fifo"`` or ``"backfill"`` (see :mod:`repro.hpc.scheduler`).
    backfill_window:
        Lookahead depth when ``scheduler_policy == "backfill"``.
    """

    scheduler_policy: str = "fifo"
    backfill_window: int = 16


class Agent:
    """Schedules and executes tasks on a :class:`ComputePlatform`.

    The agent holds a task only while it waits for placement; a running task
    is held by its pending completion event.  Completion callbacks are the
    only way to observe a finished task, which the agent then forgets.
    """

    def __init__(
        self,
        platform: ComputePlatform,
        durations: DurationModel,
        config: Optional[AgentConfig] = None,
    ) -> None:
        self._platform = platform
        self._durations = durations
        self._config = config or AgentConfig()
        # "Exec setup" (Fig 5): the sandbox's few small files on the shared
        # FS.  The speedup does not change during a run.
        self._setup_seconds = SANDBOX_SETUP_SECONDS / max(1.0, durations.speedup)
        kwargs = {}
        if self._config.scheduler_policy == "backfill":
            kwargs["window"] = self._config.backfill_window
        self._scheduler = make_scheduler(
            self._config.scheduler_policy, platform.allocator, **kwargs
        )
        self._waiting: Dict[str, Task] = {}
        self._completion_callbacks: List[Callable[[Task], None]] = []
        self._placement_scheduled = False

    # -- introspection ---------------------------------------------------- #

    @property
    def config(self) -> AgentConfig:
        return self._config

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    def on_completion(self, callback: Callable[[Task], None]) -> Callable[[], None]:
        """Register a callback invoked whenever a task reaches a final state.

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
        self._scheduler.submit(
            QueuedRequest(request_id=task.uid, request=task.description.request)
        )
        if task.state is TaskState.NEW:
            task.advance(TaskState.TMGR_SCHEDULING)
        task.advance(TaskState.AGENT_SCHEDULING)
        self._waiting[task.uid] = task
        self._request_placement()

    # -- internal machinery ------------------------------------------------ #

    def _request_placement(self) -> None:
        """Schedule a placement pass at the current sim time (coalesced)."""
        if self._placement_scheduled:
            return
        self._placement_scheduled = True
        self._platform.loop.schedule(
            0.0, self._placement_pass, priority=_PRIORITY_PLACE
        )

    def _placement_pass(self) -> None:
        self._placement_scheduled = False
        for item, allocation in self._scheduler.try_place():
            self._start_task(self._waiting.pop(item.request_id), allocation)

    def _start_task(self, task: Task, allocation: Allocation) -> None:
        now = self._platform.now
        setup_seconds = self._setup_seconds
        run_seconds = self._durations.duration(task.description)

        task.allocation = allocation
        task.start_time = now
        task.advance(TaskState.EXECUTING)

        profiler = self._platform.profiler
        profiler.record_phase(task.uid, "exec_setup", now, now + setup_seconds)
        profiler.record_phase(
            task.uid, "running", now + setup_seconds, now + setup_seconds + run_seconds
        )
        self._platform.loop.schedule(
            setup_seconds + run_seconds,
            self._complete_task,
            task,
            priority=_PRIORITY_COMPLETE,
        )

    def _complete_task(self, task: Task) -> None:
        task.finish(self._platform)
        for callback in list(self._completion_callbacks):
            callback(task)
        self._request_placement()
