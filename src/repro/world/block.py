"""Block palette.

A compact set of block types sufficient for the paper's workloads:
terrain generation, player building (planks/cobblestone), and mining.
Values are stable wire ids used by the serializer's size model.
"""

from __future__ import annotations

from enum import IntEnum


class BlockType(IntEnum):
    """Block type ids. AIR is 0 so zero-filled chunk storage means empty."""

    AIR = 0
    STONE = 1
    DIRT = 2
    GRASS = 3
    SAND = 4
    WATER = 5
    WOOD = 6
    LEAVES = 7
    COBBLESTONE = 8
    PLANKS = 9
    GLASS = 10
    TORCH = 11
    BRICK = 12
    BEDROCK = 13


#: Block types bots choose from when building structures.
BUILDING_BLOCKS = (
    BlockType.COBBLESTONE,
    BlockType.PLANKS,
    BlockType.GLASS,
    BlockType.BRICK,
    BlockType.TORCH,
)
