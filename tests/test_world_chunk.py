"""Unit tests for chunk storage."""

import pytest

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_SIZE, WORLD_HEIGHT, Chunk
from repro.world.geometry import BlockPos, ChunkPos


@pytest.fixture
def chunk() -> Chunk:
    return Chunk(ChunkPos(0, 0))


def test_new_chunk_is_all_air(chunk):
    assert chunk.non_air_count == 0
    assert chunk.get_block(BlockPos(0, 0, 0)) == BlockType.AIR


def test_set_and_get_block(chunk):
    pos = BlockPos(5, 10, 7)
    old = chunk.set_block(pos, BlockType.STONE)
    assert old == BlockType.AIR
    assert chunk.get_block(pos) == BlockType.STONE


def test_set_block_returns_previous(chunk):
    pos = BlockPos(1, 1, 1)
    chunk.set_block(pos, BlockType.DIRT)
    assert chunk.set_block(pos, BlockType.GRASS) == BlockType.DIRT


def test_non_air_count_tracks_changes(chunk):
    pos = BlockPos(0, 5, 0)
    chunk.set_block(pos, BlockType.STONE)
    assert chunk.non_air_count == 1
    chunk.set_block(pos, BlockType.DIRT)  # replace: still 1 non-air
    assert chunk.non_air_count == 1
    chunk.set_block(pos, BlockType.AIR)
    assert chunk.non_air_count == 0


def test_noop_set_does_not_count_as_modification(chunk):
    pos = BlockPos(2, 2, 2)
    chunk.set_block(pos, BlockType.STONE)
    count = chunk.modified_count
    chunk.set_block(pos, BlockType.STONE)
    assert chunk.modified_count == count


def test_modified_count_increments(chunk):
    chunk.set_block(BlockPos(0, 1, 0), BlockType.STONE)
    chunk.set_block(BlockPos(0, 2, 0), BlockType.STONE)
    assert chunk.modified_count == 2


def test_rejects_out_of_height_blocks(chunk):
    with pytest.raises(ValueError):
        chunk.get_block(BlockPos(0, WORLD_HEIGHT, 0))
    with pytest.raises(ValueError):
        chunk.set_block(BlockPos(0, -1, 0), BlockType.STONE)


def test_rejects_blocks_of_other_chunks(chunk):
    with pytest.raises(ValueError):
        chunk.set_block(BlockPos(16, 0, 0), BlockType.STONE)


def test_negative_chunk_local_mapping():
    chunk = Chunk(ChunkPos(-1, -1))
    pos = BlockPos(-1, 3, -16)  # local (15, 3, 0)
    chunk.set_block(pos, BlockType.SAND)
    assert chunk.get_block(pos) == BlockType.SAND
    assert chunk.blocks[15, 3, 0] == int(BlockType.SAND)


def test_surface_height(chunk):
    assert chunk.surface_height(3, 3) == -1
    chunk.set_block(BlockPos(3, 0, 3), BlockType.BEDROCK)
    chunk.set_block(BlockPos(3, 20, 3), BlockType.STONE)
    assert chunk.surface_height(3, 3) == 20


def test_contains(chunk):
    assert chunk.contains(BlockPos(0, 0, 0))
    assert chunk.contains(BlockPos(15, WORLD_HEIGHT - 1, 15))
    assert not chunk.contains(BlockPos(16, 0, 0))
    assert not chunk.contains(BlockPos(0, WORLD_HEIGHT, 0))


def test_chunk_dimensions():
    assert CHUNK_SIZE == 16
    chunk = Chunk(ChunkPos(2, 3))
    assert chunk.blocks.shape == (CHUNK_SIZE, WORLD_HEIGHT, CHUNK_SIZE)
