"""The client-side task manager.

Mirrors RADICAL-Pilot's ``TaskManager``: accepts task descriptions, binds
them to a pilot's agent and reports every task that reaches a final state to
its registered callbacks.  Execution is simulated, so callers drive the
platform's event loop (``platform.run()``) and observe completions through
those callbacks — the calling code (the IMPRESS coordinator) is structured
exactly as it would be against the real middleware.  The manager keeps no
record of the tasks it submitted.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.runtime.pilot import Pilot
from repro.runtime.states import TaskState
from repro.runtime.task import Task, TaskDescription

__all__ = ["TaskManager"]


class TaskManager:
    """Submits tasks to a pilot and reports their completion."""

    def __init__(self, pilot: Optional[Pilot] = None) -> None:
        self._pilot: Optional[Pilot] = None
        self._callbacks: List[Callable[[Task, TaskState], None]] = []
        if pilot is not None:
            self.add_pilot(pilot)

    # -- pilot binding ----------------------------------------------------- #

    def add_pilot(self, pilot: Pilot) -> None:
        """Bind this task manager to a pilot (one pilot per manager)."""
        if self._pilot is not None:
            raise ConfigurationError("task manager is already bound to a pilot")
        self._pilot = pilot
        pilot.agent.on_completion(self._on_agent_completion)

    @property
    def pilot(self) -> Pilot:
        if self._pilot is None:
            raise ConfigurationError("task manager has no pilot attached")
        return self._pilot

    # -- submission --------------------------------------------------------- #

    def submit_tasks(
        self, descriptions: Sequence[TaskDescription] | TaskDescription
    ) -> List[Task]:
        """Create tasks from descriptions and hand them to the pilot's agent."""
        if isinstance(descriptions, TaskDescription):
            descriptions = [descriptions]
        pilot = self.pilot
        tasks: List[Task] = []
        now = pilot.platform.now
        for description in descriptions:
            task = Task(description)
            task.submit_time = now
            pilot.agent.submit(task)
            tasks.append(task)
        return tasks

    # -- callbacks ----------------------------------------------------------- #

    def register_callback(self, callback: Callable[[Task, TaskState], None]) -> None:
        """Register a ``(task, state)`` callback fired at final states."""
        self._callbacks.append(callback)

    def _on_agent_completion(self, task: Task) -> None:
        for callback in list(self._callbacks):
            callback(task, task.state)
