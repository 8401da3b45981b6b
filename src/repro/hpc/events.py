"""Discrete-event simulation core.

A minimal but complete event loop: the heap holds plain
``(time, priority, sequence, callback, args, kwargs)`` tuples.  The loop
advances a virtual clock to each event's timestamp and invokes its callback;
callbacks may schedule further events.

The design deliberately mirrors the structure of SimPy-like engines while
staying dependency-free and fully deterministic: ties in time are broken by
priority and then by insertion order, so replays are bitwise identical.  The
sequence number is unique, so tuple comparison never reaches the callback.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import SimulationError

__all__ = ["EventLoop"]

#: A scheduled callback: ``(time, priority, sequence, callback, args, kwargs)``.
_Event = Tuple[float, int, int, Callable[..., None], tuple, dict]


class EventLoop:
    """A deterministic discrete-event loop with a virtual clock.

    Notes
    -----
    * Scheduling an event in the past raises :class:`SimulationError`; the
      simulated world never travels backwards.
    * ``priority`` lets the runtime order same-timestamp events (e.g. release
      resources *before* trying to place waiting tasks).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
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

    def peek(self) -> Optional[float]:
        """Timestamp of the next event, or ``None`` if the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when nothing is pending."""
        if not self._queue:
            return False
        time, _, _, callback, args, kwargs = heapq.heappop(self._queue)
        self._now = time
        callback(*args, **kwargs)
        self._processed += 1
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fired).

        Returns the number of events executed by this call.
        """
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed

    def run_until(self, time: float) -> int:
        """Run events with timestamps ``<= time``; advance the clock to ``time``.

        Returns the number of events executed.
        """
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

    def advance(self, delay: float) -> int:
        """Run for ``delay`` seconds of simulated time (convenience wrapper)."""
        return self.run_until(self._now + float(delay))
