"""Agent-side placement schedulers.

RADICAL-Pilot's agent contains a scheduler that maps waiting tasks onto the
pilot's resources as they become free.  Two policies are provided:

* :class:`FifoScheduler` — strict arrival order; a task that does not fit
  blocks everything behind it.  This is the conservative default and matches
  the behaviour assumed by the paper's IM-RP runs (tasks are small relative
  to the node, so head-of-line blocking is rare).
* :class:`BackfillScheduler` — scans past a blocked head-of-queue task and
  starts later tasks that fit, bounded by a ``window``.  Used by the ablation
  benchmarks to quantify how much of IM-RP's utilization gain comes from the
  protocol (concurrent pipelines) versus the placement policy.

Schedulers only *choose* tasks; actual device bookkeeping stays in
:class:`repro.hpc.allocation.NodeAllocator`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.exceptions import ConfigurationError, SchedulingError
from repro.hpc.allocation import Allocation, NodeAllocator
from repro.hpc.resources import ResourceRequest

__all__ = [
    "QueuedRequest",
    "PlacementScheduler",
    "FifoScheduler",
    "BackfillScheduler",
    "make_scheduler",
    "available_schedulers",
]


@dataclass(frozen=True)
class QueuedRequest:
    """One entry in the scheduler's waiting queue."""

    request_id: str
    request: ResourceRequest


class PlacementScheduler(ABC):
    """Base class: a waiting queue plus a placement policy."""

    def __init__(self, allocator: NodeAllocator) -> None:
        self._allocator = allocator
        self._queue: Deque[QueuedRequest] = deque()

    @property
    def allocator(self) -> NodeAllocator:
        return self._allocator

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for placement."""
        return len(self._queue)

    def submit(self, item: QueuedRequest) -> None:
        """Add a request to the waiting queue.

        Raises
        ------
        SchedulingError
            If the request could never fit on the platform; admitting it would
            deadlock the queue forever.
        """
        if not self._allocator.can_ever_fit(item.request):
            raise SchedulingError(
                f"request {item.request_id!r} ({item.request}) can never be "
                f"placed on platform {self._allocator.platform.name!r}"
            )
        self._queue.append(item)

    def try_place(self) -> List[Tuple[QueuedRequest, Allocation]]:
        """Place as many waiting requests as the policy allows right now.

        Returns the list of ``(queued_request, allocation)`` pairs placed by
        this call, in placement order.  The caller (the agent) is responsible
        for starting execution and for eventually releasing the allocations.
        """
        placed: List[Tuple[QueuedRequest, Allocation]] = []
        while True:
            choice = self._select_next()
            if choice is None:
                return placed
            item = self._pop(choice)
            allocation = self._allocator.allocate(item.request)
            placed.append((item, allocation))

    def _pop(self, item: QueuedRequest) -> QueuedRequest:
        if self._queue[0] is item:
            return self._queue.popleft()
        try:
            self._queue.remove(item)
        except ValueError:  # pragma: no cover - defensive
            raise SchedulingError(f"request {item.request_id!r} vanished from queue")
        return item

    @abstractmethod
    def _select_next(self) -> Optional[QueuedRequest]:
        """Return the next queued request to place now, or ``None``."""


class FifoScheduler(PlacementScheduler):
    """Strict FIFO first-fit: only the head of the queue may start."""

    def _select_next(self) -> Optional[QueuedRequest]:
        if not self._queue:
            return None
        head = self._queue[0]
        if self._allocator.fits_now(head.request):
            return head
        return None


class BackfillScheduler(PlacementScheduler):
    """FIFO with bounded backfilling.

    When the head of the queue does not fit, up to ``window`` subsequent
    requests are examined and the first that fits is started.  This is the
    classic "EASY-style" compromise between utilization and fairness, without
    reservations (the simulated tasks have no user-provided runtime
    estimates).
    """

    def __init__(self, allocator: NodeAllocator, window: int = 16) -> None:
        super().__init__(allocator)
        if window < 1:
            raise ConfigurationError(f"backfill window must be >= 1, got {window}")
        self._window = window

    @property
    def window(self) -> int:
        return self._window

    def _select_next(self) -> Optional[QueuedRequest]:
        for index, item in enumerate(self._queue):
            if index > self._window:
                break
            if self._allocator.fits_now(item.request):
                return item
        return None


_SCHEDULERS: dict[str, Callable[..., PlacementScheduler]] = {
    "fifo": FifoScheduler,
    "backfill": BackfillScheduler,
}


def available_schedulers() -> tuple:
    """The sorted names of every registered placement policy."""
    return tuple(sorted(_SCHEDULERS))


def make_scheduler(
    name: str, allocator: NodeAllocator, **kwargs: object
) -> PlacementScheduler:
    """Factory: build a scheduler by policy name (``"fifo"`` or ``"backfill"``)."""
    try:
        factory = _SCHEDULERS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {name!r}; available: {sorted(_SCHEDULERS)}"
        ) from None
    return factory(allocator, **kwargs)
