"""Unit tests for entities."""

from repro.world.entity import Entity, EntityKind
from repro.world.geometry import ChunkPos, Vec3


def test_entity_chunk_follows_position():
    entity = Entity(entity_id=1, kind=EntityKind.PLAYER, position=Vec3(17.0, 30.0, -1.0))
    assert entity.chunk_pos == ChunkPos(1, -1)
    entity.position = Vec3(0.0, 30.0, 0.0)
    assert entity.chunk_pos == ChunkPos(0, 0)


def test_defaults():
    entity = Entity(1, EntityKind.SHEEP, Vec3.zero())
    assert entity.velocity == Vec3.zero()
    assert entity.yaw == 0.0
    assert entity.name == ""


def test_repr_is_compact():
    entity = Entity(5, EntityKind.ZOMBIE, Vec3(1.234, 30.0, 5.678))
    text = repr(entity)
    assert "zombie" in text and "id=5" in text
