"""Task descriptions and live task objects.

A :class:`TaskDescription` is the immutable recipe handed to the task
manager: what kind of computation, how many cores/GPUs, the Python payload
standing in for the real executable, and the metadata the duration model and
the coordinator read.  A :class:`Task` is the live object the
runtime fills in as the task runs: its timestamps, its allocation and its
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.exceptions import ConfigurationError
from repro.hpc.allocation import Allocation
from repro.hpc.platform import ComputePlatform
from repro.hpc.profiling import ResourceInterval
from repro.hpc.resources import ResourceRequest

__all__ = ["TaskDescription", "Task"]


@dataclass(frozen=True)
class TaskDescription:
    """Immutable recipe for one task.

    Attributes
    ----------
    name:
        The task's identity (e.g. ``"mpnn.NHERF3.cycle1"``): unique within a
        campaign, and the id its profiler row carries.
    kind:
        The value of a :class:`repro.runtime.durations.TaskKind`, which
        names the task's pipeline stage: the duration model looks up its
        cost profile by it, and the pipeline its stage handler.
    request:
        Resource requirements (cores / GPUs / memory).
    payload:
        Zero-argument callable executed when the simulated task "runs"; its
        return value becomes :attr:`Task.result`.  In the real system this is
        the ProteinMPNN / AlphaFold executable; here it is the surrogate
        model call.
    metadata:
        What the coordinator and the duration model read: a stage task holds
        ``pipeline_uid`` and ``n_residues``, plus ``n_sequences`` for
        generation and ranking.
    """

    name: str
    kind: str
    request: ResourceRequest
    payload: Optional[Callable[[], Any]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("task description needs a non-empty name")
        if not self.kind:
            raise ConfigurationError("task description needs a non-empty kind")


class Task:
    """A live task: description + what its execution recorded.

    RADICAL-Pilot's task lifecycle (NEW -> TMGR_SCHEDULING ->
    AGENT_SCHEDULING -> EXECUTING -> DONE/FAILED) reads off three fields
    here: a task without ``start_time`` is still waiting for placement, one
    with ``start_time`` but no ``end_time`` is executing, and a finished one
    is FAILED when ``failed`` (its payload raised) and DONE otherwise.
    """

    __slots__ = (
        "_description",
        "start_time",
        "end_time",
        "allocation",
        "result",
        "exception",
        "__weakref__",
    )

    def __init__(self, description: TaskDescription) -> None:
        self._description = description
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.allocation: Optional[Allocation] = None
        self.result: Any = None
        self.exception: Optional[BaseException] = None

    @property
    def description(self) -> TaskDescription:
        return self._description

    @property
    def name(self) -> str:
        return self._description.name

    @property
    def kind(self) -> str:
        return self._description.kind

    @property
    def request(self) -> ResourceRequest:
        return self._description.request

    @property
    def metadata(self) -> Dict[str, Any]:
        return self._description.metadata

    @property
    def failed(self) -> bool:
        """Whether the payload raised (RP's FAILED state)."""
        return self.exception is not None

    def finish(self, platform: ComputePlatform) -> None:
        """End execution at the platform's current time.

        Releases the task's devices, runs the payload (a raise becomes the
        task's ``exception``) and records the task's resource interval.  A
        second call raises in the allocator's double-release check before
        anything runs or is recorded again.
        """
        allocation = self.allocation
        platform.allocator.release(allocation)
        payload = self._description.payload
        if payload is not None:
            try:
                self.result = payload()
            except Exception as exc:  # payload failures become task failures
                self.exception = exc
        now = platform.now
        platform.profiler.record_resource_interval(
            ResourceInterval(
                self.name,
                allocation.node,
                allocation.cpu_core_ids,
                allocation.gpu_ids,
                self.start_time,
                now,
            )
        )
        self.end_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} kind={self.kind} failed={self.failed}>"
