"""Agent-side placement scheduling.

RADICAL-Pilot's agent contains a scheduler that maps waiting tasks onto the
pilot's resources as they become free.  :class:`PlacementScheduler` keeps the
waiting queue in arrival order and places, on each pass, the first queued
item that fits within ``window`` places of the head.  The two named policies
are two windows:

* ``"fifo"`` — window 0: strict arrival order; a task that does not fit
  blocks everything behind it.  This is the conservative default and matches
  the behaviour assumed by the paper's IM-RP runs (tasks are small relative
  to the node, so head-of-line blocking is rare).
* ``"backfill"`` — the campaign's ``backfill_window`` (at least 1): scans past
  a blocked head and starts a later task that fits, the classic "EASY-style"
  compromise between utilization and fairness, without reservations (the
  simulated tasks have no user-provided runtime estimates).  The ablation
  benchmarks use it to quantify how much of IM-RP's utilization gain comes
  from the protocol (concurrent pipelines) versus the placement policy.

The scheduler only *chooses*; device bookkeeping stays in
:class:`repro.hpc.allocation.NodeAllocator`.  A pass offers each item within
the window to :meth:`~repro.hpc.allocation.NodeAllocator.try_allocate` once,
in queue order: a placement only takes devices away, so an item that did not
fit earlier in the pass still does not, and the item behind a placed one
moves up into its place.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Tuple

from repro.exceptions import ConfigurationError, SchedulingError
from repro.hpc.allocation import Allocation, NodeAllocator

__all__ = ["SCHEDULER_POLICIES", "placement_window", "PlacementScheduler"]

#: The placement policy names a campaign may choose.
SCHEDULER_POLICIES = ("backfill", "fifo")


def placement_window(policy: str, backfill_window: int) -> int:
    """The lookahead window of a named policy; ``"fifo"`` ignores ``backfill_window``.

    Raises
    ------
    ConfigurationError
        For an unknown policy, or a backfill window below 1.
    """
    if policy == "fifo":
        return 0
    if policy != "backfill":
        raise ConfigurationError(
            f"unknown scheduler {policy!r}; available: {list(SCHEDULER_POLICIES)}"
        )
    if backfill_window < 1:
        raise ConfigurationError(f"backfill window must be >= 1, got {backfill_window}")
    return backfill_window


class PlacementScheduler:
    """A waiting queue and a bounded-lookahead first-fit placement.

    Queued items are anything with a ``name`` and a ``request`` (the agent
    queues its tasks themselves).
    """

    def __init__(self, allocator: NodeAllocator, window: int) -> None:
        if window < 0:
            # A negative window would never place even the head of the queue.
            raise ConfigurationError(f"placement window must be >= 0, got {window}")
        self._allocator = allocator
        self._window = window
        self._queue: Deque[Any] = deque()

    @property
    def queue_length(self) -> int:
        """Number of items waiting for placement."""
        return len(self._queue)

    def submit(self, item: Any) -> None:
        """Add an item to the waiting queue.

        Raises
        ------
        SchedulingError
            If its request could never fit on the platform; admitting it would
            deadlock the queue forever.
        """
        if not self._allocator.can_ever_fit(item.request):
            raise SchedulingError(
                f"{item.name!r} ({item.request}) can never be placed on "
                f"platform {self._allocator.platform.name!r}"
            )
        self._queue.append(item)

    def try_place(self) -> List[Tuple[Any, Allocation]]:
        """Place as many waiting items as the window allows right now.

        Returns the ``(item, allocation)`` pairs placed by this call, in
        placement order.  The caller (the agent) is responsible for starting
        execution and for eventually releasing the allocations.
        """
        placed: List[Tuple[Any, Allocation]] = []
        queue = self._queue
        try_allocate = self._allocator.try_allocate
        index = 0
        while index <= self._window and index < len(queue):
            item = queue[index]
            allocation = try_allocate(item.request)
            if allocation is None:
                index += 1
                continue
            del queue[index]
            placed.append((item, allocation))
        return placed
