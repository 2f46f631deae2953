"""Unit tests for the block palette."""

from repro.world.block import BUILDING_BLOCKS, BlockType


def test_air_is_zero():
    """Zero-filled chunk storage must mean 'empty'."""
    assert BlockType.AIR == 0


def test_ids_are_stable_and_unique():
    values = [int(block) for block in BlockType]
    assert len(values) == len(set(values))
    # Wire ids are part of the size model; spot-check stability.
    assert int(BlockType.STONE) == 1
    assert int(BlockType.BEDROCK) == 13


def test_building_blocks_are_placeable():
    assert BUILDING_BLOCKS
    for block in BUILDING_BLOCKS:
        assert block not in (BlockType.AIR, BlockType.BEDROCK)  # players can undo their builds
