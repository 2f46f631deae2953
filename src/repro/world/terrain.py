"""Deterministic procedural terrain.

A multi-octave value-noise heightmap drives layered terrain (bedrock,
stone, dirt, grass/sand, water), plus sparse trees. Generation is a pure
function of ``(seed, chunk position)``: the same chunk is always generated
identically, so replicas and re-runs agree without storing snapshots.

Generation keeps what it decided, not the blocks it implies: a chunk's
:class:`GeneratedBase` is its 16x16 column heights and its ordered tree
list, packed into a few hundred bytes, and answers any cell from the
layering rule (:meth:`GeneratedBase.block_at`). No block array is built.

The heightmap is one vectorised pass over every octave and every chunk of
a batch (S33): :meth:`TerrainGenerator.generate_many` loads a row of
chunks in one pass, and :meth:`TerrainGenerator.generate` is its
one-chunk case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.rng import derive_rng, derive_seed
from repro.world.block import BlockType
from repro.world.chunk import WORLD_HEIGHT, Chunk
from repro.world.geometry import CHUNK_SIZE, ChunkPos

#: Water fills up to this height; columns below it become sand-bottom pools.
SEA_LEVEL = 20

#: One tree's cells as (dx, dy, dz) from its trunk top: the trunk, down to
#: dy = 1 - trunk height (3..5), then the 3x3x2 canopy around the top.
_TREE_DX, _TREE_DY, _TREE_DZ = np.array(
    [(0, -k, 0) for k in range(5)]
    + [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dz in (-1, 0, 1)
        for dy in (0, 1)
        if (dx, dz, dy) != (0, 0, 0)
    ],
    dtype=np.int64,
).T


class GeneratedBase:
    """One chunk as generated: its column heights and tree placements.

    ``heights[lx * 16 + lz]`` is the terrain height of column (lx, lz);
    ``trees`` packs ``(lx, lz, surface, trunk height)`` into 4 bytes per
    tree, in planting order: where two trees overlap the later one's
    block stands.
    """

    __slots__ = ("heights", "trees")

    def __init__(self, heights: bytes, trees: bytes) -> None:
        self.heights = heights
        self.trees = trees

    def block_at(self, lx: int, y: int, lz: int) -> BlockType:
        """The generated block at local cell (lx, y, lz)."""
        trees = self.trees
        for i in range(len(trees) - 4, -1, -4):
            dx = lx - trees[i]
            if -1 <= dx <= 1:
                dz = lz - trees[i + 1]
                if -1 <= dz <= 1:
                    surface = trees[i + 2]
                    top = surface + trees[i + 3]
                    if dx == 0 and dz == 0:
                        if surface < y <= top:
                            return BlockType.WOOD
                        if y == top + 1:
                            return BlockType.LEAVES
                    elif top <= y <= top + 1:
                        return BlockType.LEAVES
        height = self.heights[lx * CHUNK_SIZE + lz]
        if y > height:
            return BlockType.WATER if y <= SEA_LEVEL else BlockType.AIR
        if y == height:
            return BlockType.SAND if height <= SEA_LEVEL + 1 else BlockType.GRASS
        if y >= height - 3:
            return BlockType.DIRT
        return BlockType.STONE if y >= 1 else BlockType.BEDROCK

    def census(self) -> tuple[int, bytearray]:
        """``(non-air block count, top non-air y + 1 per column)``.

        Terrain fills every column solid up to ``max(height, SEA_LEVEL)``;
        trees add their distinct cells above that.
        """
        tops = np.maximum(np.frombuffer(self.heights, dtype=np.uint8), SEA_LEVEL).astype(
            np.int64
        )
        non_air = int(tops.sum()) + tops.size
        if self.trees:
            tree = np.frombuffer(self.trees, dtype=np.uint8).astype(np.int64).reshape(-1, 4)
            trunk_top = (tree[:, 2] + tree[:, 3])[:, None]
            keep = _TREE_DY > -tree[:, 3:4]
            columns = (tree[:, 0:1] + _TREE_DX) * CHUNK_SIZE + tree[:, 1:2] + _TREE_DZ
            cells = np.unique((columns * WORLD_HEIGHT + trunk_top + _TREE_DY)[keep])
            columns, ys = np.divmod(cells, WORLD_HEIGHT)
            non_air += int(np.count_nonzero(ys > tops[columns]))
            np.maximum.at(tops, columns, ys)
        return non_air, bytearray((tops + 1).astype(np.uint8).tobytes())


class TerrainGenerator:
    """Generates chunks deterministically from a world seed."""

    #: (relative amplitude, period in blocks) per octave.
    OCTAVES = ((1.0, 96.0), (0.5, 48.0), (0.25, 16.0))
    MIN_HEIGHT = 12
    MAX_HEIGHT = 44
    TREE_DENSITY = 0.004  # expected trees per surface block

    def __init__(self, seed: int) -> None:
        self.seed = seed
        noise_seed = derive_seed(seed, "terrain", "height")
        # Per-octave constants shaped for the heightmap pass, whose axes
        # are (octave, tile, x, z).
        self._octave_seeds = np.array(
            [
                derive_seed(noise_seed, "octave", index) & 0xFFFFFFFFFFFFFFFF
                for index in range(len(self.OCTAVES))
            ],
            dtype=np.uint64,
        ).reshape(-1, 1, 1, 1)
        self._amplitudes = np.array([a for a, __ in self.OCTAVES]).reshape(-1, 1, 1, 1)
        self._periods = np.array([p for __, p in self.OCTAVES]).reshape(-1, 1, 1, 1)
        self._amplitude_sum = sum(a for a, __ in self.OCTAVES)

    def height_at(self, x: int, z: int) -> int:
        """Terrain surface height for a single world column."""
        xs = np.array([[[x]]], dtype=np.int64)
        zs = np.array([[[z]]], dtype=np.int64)
        return int(self._heightmap(xs, zs)[0, 0, 0])

    def generate(self, pos: ChunkPos) -> Chunk:
        """Generate the chunk at ``pos``."""
        return self.generate_many([pos])[0]

    def generate_many(self, positions: Sequence[ChunkPos]) -> list[Chunk]:
        """Generate the chunks at ``positions``, in order: one heightmap
        pass over all of them, then each one's trees. Equal to a
        :meth:`generate` loop, chunk for chunk; each chunk owns its bytes."""
        if not positions:
            return []
        origins = np.array([(pos.cx, pos.cz) for pos in positions], dtype=np.int64)
        columns = np.arange(CHUNK_SIZE, dtype=np.int64)
        heights = self._heightmap(
            (origins[:, 0:1] * CHUNK_SIZE + columns)[:, :, None],
            (origins[:, 1:2] * CHUNK_SIZE + columns)[:, None, :],
        )
        packed = heights.astype(np.uint8)
        return [
            Chunk(pos, GeneratedBase(packed[i].tobytes(), self._plant_trees(pos, tile)))
            for i, (pos, tile) in enumerate(zip(positions, heights.tolist()))
        ]

    def _heightmap(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Surface heights of tiles of world columns: ``xs`` is ``(tiles,
        w, 1)`` and ``zs`` ``(tiles, 1, w)``, int64; returns ``(tiles, w,
        w)``.

        Every octave in one pass, the octave as the leading axis: bilinear
        value noise with a smoothstep fade over an integer lattice, each
        tile's lattice points hashed once (SplitMix64, a pure function of
        seed and point), then the octaves weighted and summed in order.
        Every element sees the same IEEE operations in the same order as
        one octave and one chunk at a time, so heights do not depend on
        how chunks are batched.
        """
        gx = xs / self._periods  # (octave, tile, w, 1)
        gz = zs / self._periods  # (octave, tile, 1, w)
        x0 = np.floor(gx).astype(np.int64)
        z0 = np.floor(gz).astype(np.int64)
        fx = gx - x0
        fz = gz - z0
        # Smoothstep fade removes the lattice-aligned creases of raw bilinear.
        fx = fx * fx * (3.0 - 2.0 * fx)
        fz = fz * fz * (3.0 - 2.0 * fz)
        # Each tile's lattice from its lowest corner: a chunk spans at most
        # 3x3 points per octave.
        bx = x0.min(axis=2, keepdims=True)
        bz = z0.min(axis=3, keepdims=True)
        ix = x0 - bx
        iz = z0 - bz
        steps = np.arange(max(int(ix.max()), int(iz.max())) + 2, dtype=np.int64)
        size = steps.size
        lattice_x = (bx + steps[:, None]).astype(np.uint64)  # (octave, tile, size, 1)
        lattice_z = (bz + steps[None, :]).astype(np.uint64)  # (octave, tile, 1, size)
        h = lattice_x * np.uint64(0x9E3779B97F4A7C15) ^ lattice_z * np.uint64(0xC2B2AE3D27D4EB4F)
        h ^= self._octave_seeds
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
        lattice = ((h >> np.uint64(11)).astype(np.float64) / float(1 << 53)).ravel()
        # Flat index of each column's (x0, z0) corner in its own tile's lattice.
        octaves, tiles = x0.shape[:2]
        tile = np.arange(octaves * tiles, dtype=np.int64).reshape(octaves, tiles, 1, 1)
        corner = (tile * size + ix) * size + iz
        # v00 * (1 - fx) + v10 * fx along x, then the same along z, in
        # place: the same operations with fewer batch-sized temporaries.
        top = lattice[corner]
        top *= 1.0 - fx
        top += lattice[corner + size] * fx
        bottom = lattice[corner + 1]
        bottom *= 1.0 - fx
        bottom += lattice[corner + (size + 1)] * fx
        del corner
        top *= 1.0 - fz
        bottom *= fz
        top += bottom
        del bottom
        top *= self._amplitudes
        # Summed from the first octave, not from 0.0: every weight is >= 0,
        # and 0.0 + w is w bit for bit.
        total = top[0]
        for octave in top[1:]:
            total = total + octave
        normalized = total / self._amplitude_sum
        span = self.MAX_HEIGHT - self.MIN_HEIGHT
        return (self.MIN_HEIGHT + normalized * span).astype(np.int64)

    def _plant_trees(self, pos: ChunkPos, heights: list[list[int]]) -> bytes:
        """Tree placements ``(lx, lz, surface, trunk)``, packed in planting order."""
        rng = derive_rng(self.seed, "terrain", "trees", pos.cx, pos.cz)
        trees = bytearray()
        for lx in range(2, CHUNK_SIZE - 2):
            column = heights[lx]
            for lz in range(2, CHUNK_SIZE - 2):
                surface = column[lz]
                if surface <= SEA_LEVEL + 1 or surface + 6 >= WORLD_HEIGHT:
                    continue
                if rng.random() >= self.TREE_DENSITY * CHUNK_SIZE:
                    continue
                trees += bytes((lx, lz, surface, rng.randint(3, 5)))
        return bytes(trees)
