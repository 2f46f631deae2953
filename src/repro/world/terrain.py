"""Deterministic procedural terrain.

A multi-octave value-noise heightmap drives layered terrain (bedrock,
stone, dirt, grass/sand, water), plus sparse trees. Generation is a pure
function of ``(seed, chunk position)``: the same chunk is always generated
identically, so replicas and re-runs agree without storing snapshots.

Generation keeps what it decided, not the blocks it implies: a chunk's
:class:`GeneratedBase` is its 16x16 column heights and its ordered tree
list, packed into a few hundred bytes, and answers any cell from the
layering rule (:meth:`GeneratedBase.block_at`). No block array is built.
"""

from __future__ import annotations

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


def _lattice_values(seed: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Pseudo-random values in [0, 1) at integer lattice points.

    Uses a SplitMix64-style integer hash so the lattice is a pure function
    of (seed, x, z) and vectorizes (and broadcasts) over numpy arrays.
    """
    x64 = xs.astype(np.uint64)
    z64 = zs.astype(np.uint64)
    h = x64 * np.uint64(0x9E3779B97F4A7C15) ^ z64 * np.uint64(0xC2B2AE3D27D4EB4F)
    h ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _value_noise(seed: int, xs: np.ndarray, zs: np.ndarray, period: float) -> np.ndarray:
    """Bilinear value noise at world columns ``xs`` x ``zs`` (a column and a
    row vector, or two arrays of one shape)."""
    gx = xs / period
    gz = zs / period
    x0 = np.floor(gx).astype(np.int64)
    z0 = np.floor(gz).astype(np.int64)
    fx = gx - x0
    fz = gz - z0
    # Smoothstep fade removes the lattice-aligned creases of raw bilinear.
    fx = fx * fx * (3.0 - 2.0 * fx)
    fz = fz * fz * (3.0 - 2.0 * fz)
    # Hash each lattice corner once: a chunk spans at most 3x3 of them.
    bx, bz = int(x0.min()), int(z0.min())
    lattice = _lattice_values(
        seed,
        np.arange(bx, int(x0.max()) + 2, dtype=np.int64)[:, None],
        np.arange(bz, int(z0.max()) + 2, dtype=np.int64)[None, :],
    )
    ix = x0 - bx
    iz = z0 - bz
    v00 = lattice[ix, iz]
    v10 = lattice[ix + 1, iz]
    v01 = lattice[ix, iz + 1]
    v11 = lattice[ix + 1, iz + 1]
    top = v00 * (1.0 - fx) + v10 * fx
    bottom = v01 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fz) + bottom * fz


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
        self._octave_seeds = tuple(
            derive_seed(noise_seed, "octave", index) for index in range(len(self.OCTAVES))
        )

    def height_at(self, x: int, z: int) -> int:
        """Terrain surface height for a single world column."""
        xs = np.array([[x]], dtype=np.int64)
        zs = np.array([[z]], dtype=np.int64)
        return int(self._heightmap(xs, zs)[0, 0])

    def generate(self, pos: ChunkPos) -> Chunk:
        """Generate the chunk at ``pos``."""
        x0 = pos.cx * CHUNK_SIZE
        z0 = pos.cz * CHUNK_SIZE
        heights = self._heightmap(
            np.arange(x0, x0 + CHUNK_SIZE, dtype=np.int64)[:, None],
            np.arange(z0, z0 + CHUNK_SIZE, dtype=np.int64)[None, :],
        )
        trees = self._plant_trees(pos, heights.tolist())
        return Chunk(pos, GeneratedBase(heights.astype(np.uint8).tobytes(), trees))

    def _heightmap(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        total = np.zeros(np.broadcast_shapes(xs.shape, zs.shape), dtype=np.float64)
        amplitude_sum = 0.0
        for (amplitude, period), octave_seed in zip(self.OCTAVES, self._octave_seeds):
            total += amplitude * _value_noise(octave_seed, xs, zs, period)
            amplitude_sum += amplitude
        normalized = total / amplitude_sum
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
