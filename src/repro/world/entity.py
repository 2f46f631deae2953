"""Entities: players, mobs, dropped items.

Entities are the *dynamic* half of the MVE: unlike blocks they move every
tick, so they dominate the server's outgoing update traffic and are the
main target of dyconit bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.world.geometry import ChunkPos, Vec3


class EntityKind(Enum):
    PLAYER = "player"
    ZOMBIE = "zombie"
    SKELETON = "skeleton"
    COW = "cow"
    SHEEP = "sheep"
    ITEM = "item"


@dataclass(slots=True)
class Entity:
    """A dynamic object in the world.

    ``entity_id`` is unique for the lifetime of a world; ids are never
    reused, matching Minecraft semantics where clients key replicas by id.
    """

    entity_id: int
    kind: EntityKind
    position: Vec3
    velocity: Vec3 = field(default_factory=Vec3.zero)
    yaw: float = 0.0
    pitch: float = 0.0
    name: str = ""

    @property
    def chunk_pos(self) -> ChunkPos:
        return self.position.to_chunk_pos()

    def __repr__(self) -> str:
        return (
            f"Entity(id={self.entity_id}, kind={self.kind.value}, "
            f"pos=({self.position.x:.1f}, {self.position.y:.1f}, {self.position.z:.1f}))"
        )
