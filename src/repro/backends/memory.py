"""In-memory backends: the pre-seam behaviour, verbatim.

``InMemoryStateStore`` hands the manager exactly the
:class:`~repro.core.dyconit.Dyconit` objects it used to construct
itself, and ``DirectEventBus`` reproduces the legacy inline
``subscriber.deliver(...)`` call — so a system built on the default
backends is *byte-identical* to the pre-refactor tree (the existing
2k-tick single-server and 2-shard differential harnesses run unmodified
against it).

``BufferedEventBus`` is the first non-trivial bus: it queues published
deliveries and makes them, in publish order, when :meth:`drain` is
called. It exists for consumers that want a barrier between flush
decision and delivery (gateway taps, future networked fan-out) and as
the second implementation that keeps the EventBus contract honest.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.backends.base import EventBus, StateStore
from repro.core.dyconit import Dyconit
from repro.core.subscription import Segment, Subscriber


class InMemoryStateStore(StateStore):
    """Dyconit state in process memory, as S17 flat columns."""

    name = "memory"

    def create_dyconit_state(self, dyconit_id: Hashable, *, merging: bool) -> Dyconit:
        return Dyconit(dyconit_id, merging=merging, flat=True)


class DirectEventBus(EventBus):
    """Deliver inline, on the publishing call stack."""

    name = "direct"

    def publish(self, subscriber: Subscriber, segments: Sequence[Segment]) -> None:
        subscriber.deliver(segments)


class BufferedEventBus(EventBus):
    """Queue published deliveries; make them in publish order on drain."""

    name = "buffered"

    def __init__(self) -> None:
        self._queue: list[tuple[Subscriber, Sequence[Segment]]] = []
        self.published = 0
        self.delivered = 0

    def publish(self, subscriber: Subscriber, segments: Sequence[Segment]) -> None:
        self._queue.append((subscriber, segments))
        self.published += 1

    @property
    def pending(self) -> int:
        return len(self._queue)

    def drain(self) -> int:
        delivered = 0
        # Deliveries may publish follow-on batches (a handler committing
        # back into the system); keep draining until quiescent so drain()
        # is a true barrier.
        while self._queue:
            batch, self._queue = self._queue, []
            for index, (subscriber, segments) in enumerate(batch):
                try:
                    subscriber.deliver(segments)
                except BaseException:
                    # A failed delivery must not lose the detached tail:
                    # re-queue everything not yet delivered (including
                    # the failed one, so the caller can retry it)
                    # ahead of anything published *during* this drain,
                    # preserving publish order, and keep the counter
                    # honest about the successes before re-raising.
                    self._queue[:0] = batch[index:]
                    self.delivered += delivered
                    raise
                delivered += 1
        self.delivered += delivered
        return delivered
