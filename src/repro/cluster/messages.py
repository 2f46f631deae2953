"""Inter-shard wire messages.

Everything that crosses a shard boundary is one of these frozen
messages, and the bus orders them FIFO per edge. A peer shard subscribes
to the same dyconits a client does, so the records inside
:class:`PeerUpdates` and :class:`PeerSnapshot` are the world's own
events — :class:`~repro.world.events.EntitySpawnEvent`,
:class:`~repro.world.events.EntityDespawnEvent`,
:class:`~repro.world.events.BlockChangeEvent` and
:class:`~repro.world.events.ChatEvent` — with one exception: a move
travels as :class:`GhostMove`, which also names the entity's kind for a
subscriber that first sees it mid-flight. The parallel runner's pipe
pickles every message and record by constructor (DESIGN.md S28).

Each message models a wire size (same style as
:mod:`repro.net.protocol`: a fixed header plus a payload estimate) so
experiments can report inter-shard dyconit bandwidth in the same units
as client bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import Bounds
from repro.world.entity import EntityKind
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntitySpawnEvent,
)
from repro.world.geometry import ChunkPos, Vec3

#: Fixed per-message envelope: edge ids, sequence number, kind tag.
MESSAGE_OVERHEAD = 12


@dataclass(frozen=True, slots=True)
class ShardMessage:
    """Base class for everything the bus carries."""

    def body_size(self) -> int:
        raise NotImplementedError

    def wire_size(self) -> int:
        return MESSAGE_OVERHEAD + self.body_size()


# ----------------------------------------------------------------------
# Records: one world mutation each, carried inside PeerUpdates /
# PeerSnapshot.
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GhostMove:
    """An entity move, flat: the hot record of a border crowd."""

    entity_id: int
    x: float
    y: float
    z: float
    yaw: float
    pitch: float
    time: float
    #: Spawn-on-first-sight data: a move can arrive for an entity the
    #: subscriber has never seen (it entered interest mid-flight).
    kind_value: str = ""
    name: str = ""

    @property
    def spawnable(self) -> bool:
        return bool(self.kind_value)


GhostRecord = (
    GhostMove | EntitySpawnEvent | EntityDespawnEvent | BlockChangeEvent | ChatEvent
)


def record_size(record: GhostRecord) -> int:
    """Modelled payload bytes of one record."""
    cls = type(record)
    if cls is GhostMove:
        return 22
    if cls is EntitySpawnEvent:
        return 26 + len(record.name)
    if cls is EntityDespawnEvent:
        return 8
    if cls is BlockChangeEvent:
        return 12
    if cls is ChatEvent:
        return 6 + len(record.text)
    raise TypeError(f"{cls.__name__} is not a bus record")


def records_size(records: tuple) -> int:
    return sum(map(record_size, records))


# ----------------------------------------------------------------------
# Federation control plane
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PeerSubscribe(ShardMessage):
    """Subscriber shard asks the owner to feed it one border chunk's
    dyconit under the subscriber's own bounds."""

    chunk: ChunkPos
    bounds: Bounds

    def body_size(self) -> int:
        return 24


@dataclass(frozen=True, slots=True)
class PeerUnsubscribe(ShardMessage):
    chunk: ChunkPos

    def body_size(self) -> int:
        return 8


@dataclass(frozen=True, slots=True)
class PeerSnapshot(ShardMessage):
    """Initial state of a freshly peer-subscribed chunk: a spawn event for
    every entity the owner holds there (the dyconit stream only carries
    deltas)."""

    chunk: ChunkPos
    records: tuple

    def body_size(self) -> int:
        return 8 + records_size(self.records)


@dataclass(frozen=True, slots=True)
class PeerUpdates(ShardMessage):
    """A dyconit flush (or an interest-crossing correction) bound for a
    peer shard's ghost replicas."""

    records: tuple

    def body_size(self) -> int:
        return 2 + records_size(self.records)


# ----------------------------------------------------------------------
# Ownership transfer
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SessionHandoff(ShardMessage):
    """A player session whose avatar crossed into the target's region.

    Carries identity only — the target rebuilds the session from the
    cluster's client profile (handler, link, fault plan) exactly like a
    fresh connect, so handoff inherits connect's from-scratch semantics.
    """

    client_id: int
    entity_id: int
    position: Vec3
    yaw: float = 0.0
    pitch: float = 0.0

    def body_size(self) -> int:
        return 40


@dataclass(frozen=True, slots=True)
class EntityTransfer(ShardMessage):
    """A server-owned entity (mob) that wandered across the border."""

    entity_id: int
    kind: EntityKind
    position: Vec3
    name: str = ""

    def body_size(self) -> int:
        return 30 + len(self.name)
