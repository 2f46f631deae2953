"""Chunk storage.

A chunk is a 16x16 column of blocks, ``WORLD_HEIGHT`` blocks tall. It
keeps no block array: its contents are the *generated base* — what the
terrain generator decided for it, a few hundred bytes (see
:class:`repro.world.terrain.GeneratedBase`) — plus a sparse dict of the
cells players changed. A read returns the cell's edit if it has one and
asks the base otherwise. Every edit keeps two small tables current: the
non-air census (the chunk-data packet size model reads it) and each
column's top non-air y (every move onto the terrain reads it). The world
height is 64 rather than Minecraft's 256; the serializer's size model
accounts for the real per-section encoding so byte counts remain
representative.
"""

from __future__ import annotations

import numpy as np

from repro.world.block import BlockType
from repro.world.geometry import CHUNK_SIZE, BlockPos, ChunkPos

WORLD_HEIGHT = 64


class _AllAir:
    """The base of a chunk built without one."""

    @staticmethod
    def block_at(lx: int, y: int, lz: int) -> BlockType:
        return BlockType.AIR

    @staticmethod
    def census() -> tuple[int, bytearray]:
        return 0, bytearray(CHUNK_SIZE * CHUNK_SIZE)


_ALL_AIR = _AllAir()


class Chunk:
    """One 16x16 column of the world: a generated base plus edits.

    ``base`` answers ``block_at(lx, y, lz)`` and ``census()`` (see
    :class:`~repro.world.terrain.GeneratedBase`); without one the chunk
    starts as all air. Cells are keyed ``column * WORLD_HEIGHT + y`` with
    ``column = lx * 16 + lz``.
    """

    __slots__ = ("pos", "_base", "_edits", "_non_air", "_tops", "modified_count")

    def __init__(self, pos: ChunkPos, base=None) -> None:
        self.pos = pos
        self._base = _ALL_AIR if base is None else base
        #: Cells whose block differs from the base's, and only those.
        self._edits: dict[int, BlockType] = {}
        # The non-air census, and per column its top non-air y + 1 (0: air).
        self._non_air, self._tops = self._base.census()
        #: Number of block mutations applied after generation; a proxy for
        #: how "modified" (player-built) this part of the MVE is.
        self.modified_count = 0

    @property
    def non_air_count(self) -> int:
        """Number of non-air blocks; drives the chunk-data packet size model."""
        return self._non_air

    @property
    def blocks(self) -> np.ndarray:
        """A fresh dense ``(16, WORLD_HEIGHT, 16)`` array of block ids,
        materialised cell by cell on each call and never kept — for tests
        that compare against a dense reference."""
        return np.array(
            [
                [[self._block(lx, y, lz) for lz in range(CHUNK_SIZE)] for y in range(WORLD_HEIGHT)]
                for lx in range(CHUNK_SIZE)
            ],
            dtype=np.uint16,
        )

    @property
    def edits(self) -> dict[int, int]:
        """The cells that differ from the generated base: ``{key: block id}``."""
        return {key: int(block) for key, block in self._edits.items()}

    def apply_edits(self, edits: dict[int, int]) -> None:
        """Overlay captured :attr:`edits` on the base (``modified_count`` is
        the caller's to restore)."""
        for key, block in edits.items():
            column, y = divmod(key, WORLD_HEIGHT)
            self._set(column // CHUNK_SIZE, y, column % CHUNK_SIZE, BlockType(block))

    def contains(self, pos: BlockPos) -> bool:
        return pos.to_chunk_pos() == self.pos and 0 <= pos.y < WORLD_HEIGHT

    def get_block(self, pos: BlockPos) -> BlockType:
        return self._block(*self._local(pos))

    def set_block(self, pos: BlockPos, block: BlockType) -> BlockType:
        """Set the block at ``pos``; returns the previous block type."""
        old = self._set(*self._local(pos), block)
        if old != block:
            self.modified_count += 1
        return old

    def surface_height(self, x: int, z: int) -> int:
        """Y of the highest non-air block in the (x, z) column, or -1."""
        lx = x & (CHUNK_SIZE - 1)
        lz = z & (CHUNK_SIZE - 1)
        return self._tops[lx * CHUNK_SIZE + lz] - 1

    def _block(self, lx: int, y: int, lz: int) -> BlockType:
        block = self._edits.get((lx * CHUNK_SIZE + lz) * WORLD_HEIGHT + y)
        return self._base.block_at(lx, y, lz) if block is None else block

    def _set(self, lx: int, y: int, lz: int, block: BlockType) -> BlockType:
        column = lx * CHUNK_SIZE + lz
        key = column * WORLD_HEIGHT + y
        edited = self._edits.get(key)
        old = self._base.block_at(lx, y, lz) if edited is None else edited
        if old == block:
            return old
        if edited is not None and self._base.block_at(lx, y, lz) == block:
            del self._edits[key]
        else:
            self._edits[key] = block
        if old == BlockType.AIR:
            self._non_air += 1
        elif block == BlockType.AIR:
            self._non_air -= 1
        top = self._tops[column] - 1
        if block != BlockType.AIR and y > top:
            self._tops[column] = y + 1
        elif block == BlockType.AIR and y == top:
            while y > 0 and self._block(lx, y - 1, lz) == BlockType.AIR:
                y -= 1
            self._tops[column] = y
        return old

    def _local(self, pos: BlockPos) -> tuple[int, int, int]:
        x, y, z = pos.x, pos.y, pos.z
        if not (0 <= y < WORLD_HEIGHT):
            raise ValueError(f"y={y} outside world height [0, {WORLD_HEIGHT})")
        if x >> 4 != self.pos.cx or z >> 4 != self.pos.cz:
            raise ValueError(f"block {pos} is not inside chunk {self.pos}")
        return x & (CHUNK_SIZE - 1), y, z & (CHUNK_SIZE - 1)

    def __repr__(self) -> str:
        return f"Chunk({self.pos}, non_air={self._non_air}, modified={self.modified_count})"
