"""Coordinator communication channels.

The paper's coordinator uses two channels: one carrying new pipeline
instances toward the runtime and one carrying completed tasks back from it.
The first is a :class:`Channel`, the coordinator's submission queue.  The
second is the task manager's completion callback, so a finished task is
handed over once and never queued.  :class:`Channel` is a minimal FIFO with
optional subscriber callbacks — it is intentionally synchronous because the
discrete-event loop provides all the asynchrony the simulation needs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, Iterator, List, Optional, TypeVar

T = TypeVar("T")

__all__ = ["Channel"]


class Channel(Generic[T]):
    """A named FIFO channel with optional delivery callbacks.

    Items are appended with :meth:`put` and consumed with :meth:`get` /
    :meth:`drain`.  Subscribers registered with :meth:`subscribe` are invoked
    synchronously on every :meth:`put`.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._items: Deque[T] = deque()
        self._subscribers: List[Callable[[T], None]] = []
        self._put_count = 0
        self._get_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(list(self._items))

    @property
    def put_count(self) -> int:
        """Total items ever enqueued."""
        return self._put_count

    @property
    def get_count(self) -> int:
        """Total items ever dequeued."""
        return self._get_count

    def put(self, item: T) -> None:
        """Enqueue ``item`` and notify subscribers."""
        self._items.append(item)
        self._put_count += 1
        for callback in list(self._subscribers):
            callback(item)

    def get(self) -> Optional[T]:
        """Dequeue the oldest item, or return ``None`` when empty."""
        if not self._items:
            return None
        self._get_count += 1
        return self._items.popleft()

    def drain(self) -> List[T]:
        """Dequeue and return everything currently in the channel."""
        items = list(self._items)
        self._get_count += len(items)
        self._items.clear()
        return items

    def peek(self) -> Optional[T]:
        """Look at the oldest item without removing it."""
        return self._items[0] if self._items else None

    def subscribe(self, callback: Callable[[T], None]) -> None:
        """Register a callback invoked on every future :meth:`put`."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[T], None]) -> bool:
        """Remove a previously registered callback; returns whether it existed."""
        try:
            self._subscribers.remove(callback)
            return True
        except ValueError:
            return False
