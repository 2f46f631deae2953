"""World geometry: continuous positions, block coordinates, chunk coordinates.

The coordinate system follows Minecraft conventions: X/Z form the
horizontal plane, Y is height. A chunk is a 16x16-block column spanning
the full world height.

All three types are :class:`typing.NamedTuple` classes: hashing,
equality, field reads and pickling run in C, and construction is one
generated ``__new__``. The hash is the hash of the field tuple, exactly
what a frozen dataclass computes, so set and dict iteration orders do
not depend on which of the two a value is. Tuple concatenation and
repetition stay unsupported: ``+`` and ``*`` return ``NotImplemented``
wherever ``tuple`` would concatenate or repeat.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

CHUNK_SIZE = 16


def _no_tuple_arithmetic(self, other):
    return NotImplemented


class Vec3(NamedTuple):
    """Continuous position or displacement in world space."""

    x: float
    y: float
    z: float

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    __mul__ = __rmul__ = _no_tuple_arithmetic

    def scale(self, factor: float) -> "Vec3":
        return Vec3(self.x * factor, self.y * factor, self.z * factor)

    def length(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def horizontal_length(self) -> float:
        return math.sqrt(self.x * self.x + self.z * self.z)

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).length()

    def horizontal_distance_to(self, other: "Vec3") -> float:
        return (self - other).horizontal_length()

    def normalized(self) -> "Vec3":
        length = self.length()
        if length == 0.0:
            return Vec3(0.0, 0.0, 0.0)
        return self.scale(1.0 / length)

    def to_block_pos(self) -> "BlockPos":
        return BlockPos(math.floor(self.x), math.floor(self.y), math.floor(self.z))

    def to_chunk_pos(self) -> "ChunkPos":
        return ChunkPos(math.floor(self.x) >> 4, math.floor(self.z) >> 4)

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)


class BlockPos(NamedTuple):
    """Integer block coordinate."""

    x: int
    y: int
    z: int

    __add__ = __mul__ = __rmul__ = _no_tuple_arithmetic

    def to_chunk_pos(self) -> "ChunkPos":
        return ChunkPos(self.x >> 4, self.z >> 4)

    def local(self) -> tuple[int, int, int]:
        """Coordinates within the owning chunk: (x % 16, y, z % 16)."""
        return (self.x & (CHUNK_SIZE - 1), self.y, self.z & (CHUNK_SIZE - 1))

    def center(self) -> Vec3:
        """Continuous position of this block's center."""
        return Vec3(self.x + 0.5, self.y + 0.5, self.z + 0.5)

    def offset(self, dx: int = 0, dy: int = 0, dz: int = 0) -> "BlockPos":
        return BlockPos(self.x + dx, self.y + dy, self.z + dz)

    def manhattan_distance_to(self, other: "BlockPos") -> int:
        return abs(self.x - other.x) + abs(self.y - other.y) + abs(self.z - other.z)


class ChunkPos(NamedTuple):
    """Chunk-grid coordinate (one unit = 16 blocks on the X/Z plane)."""

    cx: int
    cz: int

    __add__ = __mul__ = __rmul__ = _no_tuple_arithmetic

    def block_origin(self) -> BlockPos:
        """The lowest-coordinate block corner of this chunk at y=0."""
        return BlockPos(self.cx * CHUNK_SIZE, 0, self.cz * CHUNK_SIZE)

    def center(self) -> Vec3:
        """Continuous position of the chunk's horizontal center at y=0."""
        half = CHUNK_SIZE / 2.0
        return Vec3(self.cx * CHUNK_SIZE + half, 0.0, self.cz * CHUNK_SIZE + half)

    def chebyshev_distance_to(self, other: "ChunkPos") -> int:
        """Chunk-grid distance used by view-distance interest management."""
        return max(abs(self.cx - other.cx), abs(self.cz - other.cz))

    def neighbors(self) -> Iterator["ChunkPos"]:
        """The 8 surrounding chunks."""
        for dx in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == 0 and dz == 0:
                    continue
                yield ChunkPos(self.cx + dx, self.cz + dz)


def chunks_in_radius(center: ChunkPos, radius: int) -> Iterator[ChunkPos]:
    """All chunk positions within Chebyshev ``radius`` of ``center``.

    This is the square window vanilla Minecraft-like servers use as the
    player view area: ``(2 * radius + 1) ** 2`` chunks.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    for cx in range(center.cx - radius, center.cx + radius + 1):
        for cz in range(center.cz - radius, center.cz + radius + 1):
            yield ChunkPos(cx, cz)
