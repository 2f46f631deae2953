"""Unit tests for the chunk->shard router (vertical ownership strips)."""

import pytest

from repro.cluster.router import ShardRouter
from repro.world.geometry import ChunkPos, Vec3


def test_single_shard_owns_everything():
    router = ShardRouter(1, 4)
    for cx in range(-20, 20, 3):
        for cz in range(-20, 20, 7):
            assert router.shard_for_chunk(ChunkPos(cx, cz)) == 0


def test_strips_alternate_round_robin():
    router = ShardRouter(2, 4)
    # Strip of width 4 starting at cx=0 belongs to shard 0, next to 1, ...
    assert router.shard_for_chunk(ChunkPos(0, 0)) == 0
    assert router.shard_for_chunk(ChunkPos(3, 5)) == 0
    assert router.shard_for_chunk(ChunkPos(4, 0)) == 1
    assert router.shard_for_chunk(ChunkPos(7, -9)) == 1
    assert router.shard_for_chunk(ChunkPos(8, 0)) == 0


def test_negative_chunks_use_floor_division():
    router = ShardRouter(2, 4)
    # Python's floor division keeps strips contiguous through zero:
    # cx in [-4, -1] is strip -1 -> shard (-1) % 2 == 1.
    for cx in (-4, -3, -2, -1):
        assert router.shard_for_chunk(ChunkPos(cx, 0)) == 1
    for cx in (-8, -7, -6, -5):
        assert router.shard_for_chunk(ChunkPos(cx, 0)) == 0


def test_ownership_is_z_independent():
    router = ShardRouter(4, 2)
    for cz in (-100, -1, 0, 1, 57):
        assert router.shard_for_chunk(ChunkPos(6, cz)) == router.shard_for_chunk(
            ChunkPos(6, 0)
        )


def test_every_shard_owns_some_strip():
    shards = 4
    router = ShardRouter(shards, 3)
    owners = {router.shard_for_chunk(ChunkPos(cx, 0)) for cx in range(-24, 24)}
    assert owners == set(range(shards))


def test_shard_for_position_matches_chunk_of_position():
    router = ShardRouter(2, 4)
    position = Vec3(65.0, 10.0, -3.0)  # chunk (4, -1) -> strip 1 -> shard 1
    assert router.shard_for_position(position) == router.shard_for_chunk(
        position.to_chunk_pos()
    )
    assert router.shard_for_position(position) == 1


def test_owns_agrees_with_shard_for_chunk():
    router = ShardRouter(3, 2)
    for cx in range(-10, 10):
        chunk = ChunkPos(cx, 0)
        owner = router.shard_for_chunk(chunk)
        for shard in range(3):
            assert router.owns(shard, chunk) == (shard == owner)


@pytest.mark.parametrize("shards,strip_width", [(0, 4), (-1, 4), (2, 0), (2, -3)])
def test_invalid_construction_rejected(shards, strip_width):
    with pytest.raises(ValueError):
        ShardRouter(shards, strip_width)
