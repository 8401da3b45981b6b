"""Discrete-event simulation core.

A minimal but complete event loop: the heap holds plain
``(time, priority, sequence, callback, args, kwargs)`` tuples.  The loop
advances a virtual clock to each event's timestamp and invokes its callback;
callbacks may schedule further events.

The design deliberately mirrors the structure of SimPy-like engines while
staying dependency-free and fully deterministic: ties in time are broken by
priority and then by insertion order, so replays are bitwise identical.  The
sequence number is unique, so tuple comparison never reaches the callback.

:attr:`EventLoop.next_time` tells a callback whether another event is due at
its own instant: the pilot agent runs its placement pass inside a completion
event when none is, since a pass scheduled at that instant would be the very
next event popped.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["EventLoop"]

#: A scheduled callback: ``(time, priority, sequence, callback, args, kwargs)``.
_Event = Tuple[float, int, int, Callable[..., None], tuple, dict]


class EventLoop:
    """A deterministic discrete-event loop with a virtual clock.

    Notes
    -----
    * Scheduling an event in the past or at a non-finite time raises
      :class:`SimulationError`: the simulated world never travels backwards,
      and a NaN time, false under every comparison, would break heap order.
    * ``priority`` lets the runtime order same-timestamp events (e.g. release
      resources *before* trying to place waiting tasks).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_Event] = []
        self._counter = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-fired events."""
        return len(self._queue)

    @property
    def next_time(self) -> float:
        """Time of the earliest pending event; ``inf`` when nothing is pending."""
        return self._queue[0][0] if self._queue else math.inf

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> None:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite t={time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before current time "
                f"t={self._now:.6f}"
            )
        heapq.heappush(
            self._queue,
            (float(time), int(priority), next(self._counter), callback, args, kwargs),
        )

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> None:
        """Schedule ``callback`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self.schedule_at(
            self._now + float(delay), callback, *args, priority=priority, **kwargs
        )

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when nothing is pending."""
        if not self._queue:
            return False
        time, _, _, callback, args, kwargs = heapq.heappop(self._queue)
        self._now = time
        callback(*args, **kwargs)
        self._processed += 1
        return True

    def clear(self) -> None:
        """Drop every pending event; the clock stays where it is."""
        self._queue.clear()

    def run(self, until: Optional[Callable[[], bool]] = None) -> int:
        """Run until the queue drains, or until ``until()`` holds after an event.

        ``until`` is checked once after every executed event, so the loop
        stops right after the event that made it true and leaves the rest of
        the queue pending.  Returns the number of events executed by this
        call.
        """
        executed = 0
        while self.step():
            executed += 1
            if until is not None and until():
                break
        return executed

    def run_until(self, time: float) -> int:
        """Run events with timestamps ``<= time``; advance the clock to ``time``.

        Returns the number of events executed.
        """
        if not math.isfinite(time):
            raise SimulationError(f"cannot run until non-finite t={time!r}")
        if time < self._now:
            raise SimulationError(
                f"cannot run until t={time:.6f}, clock already at t={self._now:.6f}"
            )
        executed = 0
        while self._queue and self._queue[0][0] <= time:
            self.step()
            executed += 1
        self._now = float(time)
        return executed
