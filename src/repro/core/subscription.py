"""Subscribers.

A subscriber is anything that receives flushed updates — in the game
integration, one subscriber per connected player session. Subscribers
optionally expose a position so spatial policies (distance-based, AOI)
can reason about where the player's avatar is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.core.update import Update
from repro.world.geometry import Vec3

#: One flushed queue: (dyconit id, merged updates in time order).
Segment = tuple[Hashable, Sequence[Update]]

#: Called with every segment the closing flush scope (S22) holds for this
#: subscriber, in drain order; outside a scope, with the one segment of
#: the flush that just happened.
DeliveryHandler = Callable[[Sequence[Segment]], None]


@dataclass
class Subscriber:
    """A consumer of dyconit updates."""

    subscriber_id: int
    deliver: DeliveryHandler
    #: Lazily evaluated avatar position for spatial policies; ``None`` for
    #: non-spatial subscribers (e.g. a monitoring sink).
    position_provider: Callable[[], Vec3] | None = None
    #: Policies may stash per-subscriber state here (e.g. interest sets).
    attributes: dict = field(default_factory=dict)
    #: What this subscriber *is*. ``"client"`` — a player session, fully
    #: under the local policy's control. ``"peer"`` — another server shard
    #: federating over the same dyconit protocol (S16); its bounds were
    #: chosen by the subscribing shard, so bound-sweeping policies must
    #: leave them alone (delivery, merging and deadline bookkeeping are
    #: identical for both kinds).
    kind: str = "client"

    @property
    def position(self) -> Vec3 | None:
        if self.position_provider is None:
            return None
        return self.position_provider()

    def __hash__(self) -> int:
        return hash(self.subscriber_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subscriber) and other.subscriber_id == self.subscriber_id
