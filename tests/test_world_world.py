"""Unit tests for the authoritative world."""

import pytest

from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntityMoveEvent,
    EntitySpawnEvent,
)
from repro.world.geometry import BlockPos, ChunkPos, Vec3


@pytest.fixture
def events(world):
    captured = []
    world.add_listener(captured.append)
    return captured


def test_chunks_generate_lazily(world):
    assert world.loaded_chunk_count == 0
    world.get_chunk(ChunkPos(0, 0))
    assert world.loaded_chunk_count == 1
    assert world.is_chunk_loaded(ChunkPos(0, 0))
    assert not world.is_chunk_loaded(ChunkPos(5, 5))


def test_get_chunk_is_cached(world):
    a = world.get_chunk(ChunkPos(1, 1))
    b = world.get_chunk(ChunkPos(1, 1))
    assert a is b


def test_set_block_emits_event(world, events):
    pos = BlockPos(4, 30, 4)
    old = world.get_block(pos)
    assert world.set_block(pos, BlockType.GLASS, actor_id=None)
    assert world.get_block(pos) == BlockType.GLASS
    block_events = [e for e in events if isinstance(e, BlockChangeEvent)]
    assert len(block_events) == 1
    assert block_events[0].old_block == old
    assert block_events[0].new_block == BlockType.GLASS


def test_noop_set_block_emits_nothing(world, events):
    pos = BlockPos(4, 30, 4)
    current = world.get_block(pos)
    assert not world.set_block(pos, current)
    assert events == []


def test_set_block_rejects_out_of_range_y(world):
    with pytest.raises(ValueError):
        world.set_block(BlockPos(0, 99, 0), BlockType.STONE)


def test_spawn_entity_assigns_unique_ids(world):
    a = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    b = world.spawn_entity(EntityKind.COW, Vec3(1, 30, 1))
    assert a.entity_id != b.entity_id
    assert world.entity_count == 2


def test_entity_ids_never_reused(world):
    a = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    world.despawn_entity(a.entity_id)
    b = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    assert b.entity_id > a.entity_id


def test_spawn_emits_event(world, events):
    entity = world.spawn_entity(EntityKind.ZOMBIE, Vec3(5, 30, 5), name="bob")
    spawns = [e for e in events if isinstance(e, EntitySpawnEvent)]
    assert len(spawns) == 1
    assert spawns[0].entity_id == entity.entity_id
    assert spawns[0].kind == EntityKind.ZOMBIE
    assert spawns[0].name == "bob"


def test_despawn_emits_event_and_removes(world, events):
    entity = world.spawn_entity(EntityKind.COW, Vec3(0, 30, 0))
    world.despawn_entity(entity.entity_id)
    assert world.get_entity(entity.entity_id) is None
    despawns = [e for e in events if isinstance(e, EntityDespawnEvent)]
    assert len(despawns) == 1


def test_despawn_unknown_raises(world):
    with pytest.raises(KeyError):
        world.despawn_entity(12345)


def test_move_entity_updates_position_and_emits(world, events):
    entity = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    world.move_entity(entity.entity_id, Vec3(3, 30, 4), yaw=90.0)
    assert entity.position == Vec3(3, 30, 4)
    assert entity.yaw == 90.0
    moves = [e for e in events if isinstance(e, EntityMoveEvent)]
    assert len(moves) == 1
    assert moves[0].old_position == Vec3(0, 30, 0)


def test_move_unknown_entity_raises(world):
    with pytest.raises(KeyError):
        world.move_entity(999, Vec3(0, 0, 0))


def test_entities_in_chunk_index_follows_moves(world):
    entity = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    assert [e.entity_id for e in world.entities_in_chunk(ChunkPos(0, 0))] == [
        entity.entity_id
    ]
    world.move_entity(entity.entity_id, Vec3(20, 30, 0))
    assert world.entities_in_chunk(ChunkPos(0, 0)) == []
    assert [e.entity_id for e in world.entities_in_chunk(ChunkPos(1, 0))] == [
        entity.entity_id
    ]


def test_despawn_removes_from_chunk_index(world):
    entity = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    world.despawn_entity(entity.entity_id)
    assert world.entities_in_chunk(ChunkPos(0, 0)) == []


def test_chunk_index_prunes_empty_buckets(world):
    """A wandering entity must not leave an empty set behind for every
    chunk it ever crossed (unbounded memory on trek workloads)."""
    entity = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    for step in range(1, 50):
        world.move_entity(entity.entity_id, Vec3(16.0 * step, 30, 0))
    assert len(world._entities_by_chunk) == 1
    world.despawn_entity(entity.entity_id)
    assert world._entities_by_chunk == {}


def test_chunk_index_keeps_bucket_while_occupied(world):
    a = world.spawn_entity(EntityKind.PLAYER, Vec3(0, 30, 0))
    b = world.spawn_entity(EntityKind.COW, Vec3(1, 30, 1))
    world.move_entity(a.entity_id, Vec3(20, 30, 0))
    assert [e.entity_id for e in world.entities_in_chunk(ChunkPos(0, 0))] == [
        b.entity_id
    ]
    assert len(world._entities_by_chunk) == 2


def test_chat_emits_global_event(world, events):
    world.chat(sender_id=1, text="hello world")
    chats = [e for e in events if isinstance(e, ChatEvent)]
    assert len(chats) == 1
    assert chats[0].text == "hello world"


def test_surface_position_is_above_ground(world):
    position = world.surface_position(10.0, 10.0)
    below = position.to_block_pos().offset(dy=-1)
    assert world.get_block(below) != BlockType.AIR


def test_event_time_follows_time_source(world, events):
    world.time_source = lambda: 777.0
    world.chat(1, "timed")
    assert events[-1].time == 777.0


def test_manual_time_without_source(world, events):
    world.time = 55.0
    world.chat(1, "manual")
    assert events[-1].time == 55.0
