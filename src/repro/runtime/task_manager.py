"""The task manager: the coordinator's one handle on the pilot runtime.

The IMPRESS coordinator needs two things from RADICAL-Pilot: a way to submit
tasks and a way to hear when they finish.  :class:`TaskManager` is exactly
that.  It builds the one :class:`~repro.runtime.agent.Agent` that places and
executes tasks on the simulated platform and, at creation, records the
pilot's bootstrap phase (the "Bootstrap" band of Fig 5).  Execution is
simulated, so callers drive the platform's event loop
(``platform.loop.run()``, which the coordinator stops after each completed
design cycle) and observe completions through registered callbacks — the
calling code is structured exactly as it would be against the real
middleware.  The manager keeps no record of the tasks it submitted.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.hpc.platform import ComputePlatform
from repro.runtime.agent import Agent
from repro.runtime.durations import DurationModel
from repro.runtime.task import Task, TaskDescription

__all__ = ["BOOTSTRAP_SECONDS", "TaskManager"]

#: Seconds between pilot launch and its agent executing tasks ("Bootstrap"
#: in Fig 5).  The agent places tasks from the start; the phase is recorded
#: for the makespan breakdown only.
BOOTSTRAP_SECONDS = 180.0


class TaskManager:
    """Submits tasks to the pilot's agent and reports their completion.

    ``window`` is the agent's placement lookahead (0 is FIFO).
    """

    def __init__(
        self, platform: ComputePlatform, durations: DurationModel, window: int = 0
    ) -> None:
        self._platform = platform
        self._agent = Agent(platform, durations, window)
        now = platform.now
        platform.profiler.record_phase("bootstrap", now, now + BOOTSTRAP_SECONDS)

    @property
    def platform(self) -> ComputePlatform:
        return self._platform

    @property
    def agent(self) -> Agent:
        return self._agent

    def submit_tasks(
        self, descriptions: Sequence[TaskDescription] | TaskDescription
    ) -> List[Task]:
        """Create tasks from descriptions and hand them to the agent."""
        if isinstance(descriptions, TaskDescription):
            descriptions = [descriptions]
        agent = self._agent
        tasks: List[Task] = []
        for description in descriptions:
            task = Task(description)
            agent.submit(task)
            tasks.append(task)
        return tasks

    def register_callback(self, callback: Callable[[Task], None]) -> Callable[[], None]:
        """Register a ``(task)`` callback for finished tasks; returns its remover."""
        return self._agent.on_completion(callback)
