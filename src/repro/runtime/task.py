"""Task descriptions and live task objects.

A :class:`TaskDescription` is the immutable recipe handed to the task
manager: what kind of computation, how many cores/GPUs, the Python payload
standing in for the real executable, and free-form metadata used by the
duration model and the coordinator.  A :class:`Task` is the live object the
runtime mutates as the task flows through its state machine, accumulating
timestamps, its allocation and its result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.exceptions import ConfigurationError
from repro.hpc.allocation import Allocation
from repro.hpc.platform import ComputePlatform
from repro.hpc.profiling import ResourceInterval
from repro.hpc.resources import ResourceRequest
from repro.runtime.states import TaskState, validate_task_transition

__all__ = ["TaskDescription", "Task"]

_uid_counter = itertools.count(1)


def _next_uid(prefix: str) -> str:
    return f"{prefix}.{next(_uid_counter):06d}"


@dataclass(frozen=True)
class TaskDescription:
    """Immutable recipe for one task.

    Attributes
    ----------
    name:
        Human-readable name (e.g. ``"mpnn.NHERF3.cycle1"``).
    kind:
        Task kind understood by the duration model (see
        :class:`repro.runtime.durations.TaskKind`); also used by reports.
    request:
        Resource requirements (cores / GPUs / memory).
    payload:
        Zero-argument callable executed when the simulated task "runs"; its
        return value becomes :attr:`Task.result`.  In the real system this is
        the ProteinMPNN / AlphaFold executable; here it is the surrogate
        model call.
    metadata:
        Free-form information (target name, pipeline uid, cycle index,
        sequence count...) used by the duration model and the coordinator.
    uid:
        Stable unique identifier; autogenerated when not supplied.
    """

    name: str
    kind: str
    request: ResourceRequest
    payload: Optional[Callable[[], Any]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    uid: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("task description needs a non-empty name")
        if not self.kind:
            raise ConfigurationError("task description needs a non-empty kind")
        if not self.uid:
            object.__setattr__(self, "uid", _next_uid("task"))


class Task:
    """A live task: description + mutable runtime state."""

    def __init__(self, description: TaskDescription) -> None:
        self._description = description
        self._state = TaskState.NEW
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.allocation: Optional[Allocation] = None
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.stderr: str = ""

    # -- identity -------------------------------------------------------- #

    @property
    def description(self) -> TaskDescription:
        return self._description

    @property
    def uid(self) -> str:
        return self._description.uid

    @property
    def name(self) -> str:
        return self._description.name

    @property
    def kind(self) -> str:
        return self._description.kind

    @property
    def metadata(self) -> Dict[str, Any]:
        return self._description.metadata

    # -- state machine --------------------------------------------------- #

    @property
    def state(self) -> TaskState:
        return self._state

    @property
    def failed(self) -> bool:
        return self._state is TaskState.FAILED

    def advance(self, target: TaskState) -> None:
        """Move the task to ``target``, validating the transition."""
        validate_task_transition(self.uid, self._state, target)
        self._state = target

    def finish(self, platform: ComputePlatform) -> None:
        """End execution at the platform's current time.

        Runs the payload, records the task's resource interval, releases its
        devices and moves it to DONE, or to FAILED when the payload raises.
        """
        final_state = TaskState.DONE
        payload = self._description.payload
        if payload is not None:
            try:
                self.result = payload()
            except Exception as exc:  # payload failures become task failures
                self.exception = exc
                self.stderr = f"{type(exc).__name__}: {exc}"
                final_state = TaskState.FAILED
        now = platform.now
        allocation = self.allocation
        platform.profiler.record_resource_interval(
            ResourceInterval(
                task_id=self.uid,
                node=allocation.node,
                cpu_core_ids=allocation.cpu_core_ids,
                gpu_ids=allocation.gpu_ids,
                start=self.start_time,
                end=now,
            )
        )
        platform.allocator.release(allocation)
        self.end_time = now
        self.advance(final_state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.uid} kind={self.kind} state={self._state.value}>"
