"""Deterministic event queue for the simulation kernel.

Events are ordered by ``(time, sequence)``. The monotonically increasing
sequence number makes dispatch order deterministic for events scheduled at
the same instant: ties break in scheduling order, never by callback
identity (which would vary between interpreter runs).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class ScheduledEvent:
    """A callback scheduled at a point in simulated time."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it at dispatch time."""
        self.cancelled = True


class EventQueue:
    """Min-heap of :class:`ScheduledEvent`, with O(1) cancellation."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at simulated ``time`` and return a handle."""
        event = ScheduledEvent(time=time, seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def peek(self) -> ScheduledEvent | None:
        """The next live event, left in place, or ``None`` when empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0]

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop(self) -> ScheduledEvent | None:
        """Remove and return the next live event, or ``None`` when empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
