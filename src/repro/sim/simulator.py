"""Simulation driver: clock + event queue + run loop."""

from __future__ import annotations

from typing import Callable

from repro.sim.clock import SimClock
from repro.sim.events import EventQueue, ScheduledEvent
from repro.telemetry.hub import NULL_TELEMETRY, Telemetry


class Simulation:
    """Owns the clock and the event queue and runs them to completion.

    Components schedule work with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time). The driver pops events in
    deterministic order and advances the clock to each event's timestamp
    before dispatching it.
    """

    def __init__(self, start: float = 0.0, telemetry: Telemetry | None = None) -> None:
        self.clock = SimClock(start)
        self.queue = EventQueue()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self.clock.now

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay_ms}")
        return self.queue.push(self.clock.now + delay_ms, callback)

    def schedule_at(self, time_ms: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute simulated time ``time_ms``."""
        if time_ms < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now}, requested={time_ms}"
            )
        return self.queue.push(time_ms, callback)

    def next_event(self) -> ScheduledEvent | None:
        """The live event the run loop dispatches next (still queued), or
        ``None`` when nothing is scheduled."""
        return self.queue.peek()

    def run_until(self, end_ms: float) -> None:
        """Dispatch events until simulated time reaches ``end_ms``.

        The clock lands exactly on ``end_ms`` when the run completes, so
        follow-up phases (e.g. a measurement epoch) start from a known
        instant. Events scheduled exactly at ``end_ms`` are dispatched.
        """
        # The dispatch counter is resolved once per run, not per event:
        # this loop is the hottest code in the repository.
        dispatched = (
            self.telemetry.counter("sim_events_dispatched_total")
            if self.telemetry.enabled
            else None
        )
        self._running = True
        try:
            while self._running:
                next_time = self.queue.peek_time()
                if next_time is None or next_time > end_ms:
                    break
                event = self.queue.pop()
                if event is None:
                    break
                self.clock.advance_to(event.time)
                event.callback()
                if dispatched is not None:
                    dispatched.increment()
        finally:
            self._running = False
        if self.clock.now < end_ms:
            self.clock.advance_to(end_ms)

    def run(self) -> None:
        """Dispatch events until the queue is exhausted."""
        dispatched = (
            self.telemetry.counter("sim_events_dispatched_total")
            if self.telemetry.enabled
            else None
        )
        self._running = True
        try:
            while self._running:
                event = self.queue.pop()
                if event is None:
                    break
                self.clock.advance_to(event.time)
                event.callback()
                if dispatched is not None:
                    dispatched.increment()
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._running = False
