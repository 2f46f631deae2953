"""A chunk is its generated base plus the players' edits.

* Reference differential: every generated chunk reads exactly as the
  dense generator it replaced (``DenseTerrainReference`` in
  ``tests/conftest.py``) — every cell, every ``get_block``, the non-air
  census, all 256 column surfaces and ``height_at``.
* Edits: random ``set_block`` sequences keep the census and the surface
  table equal to a dense recount, and keep exactly the cells that differ
  from the base.
* Memory: a generated chunk retains a few hundred bytes and holds no
  block array, before or after it is edited.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world.block import BlockType
from repro.world.chunk import WORLD_HEIGHT, Chunk
from repro.world.geometry import CHUNK_SIZE, BlockPos, ChunkPos
from repro.world.terrain import TerrainGenerator
from repro.world.world import World

from tests.conftest import DenseTerrainReference

#: 102 chunks per seed: a 10x10 grid straddling the origin plus two far out.
DIFFERENTIAL_CHUNKS = [
    ChunkPos(cx, cz) for cx in range(-33, 37, 7) for cz in range(-36, 34, 7)
] + [ChunkPos(-4001, 2999), ChunkPos(7777, -12345)]


def _dense_surface(blocks: np.ndarray, lx: int, lz: int) -> int:
    solid = np.nonzero(blocks[lx, :, lz])[0]
    return int(solid[-1]) if solid.size else -1


def _assert_census_matches(chunk: Chunk, dense: np.ndarray) -> None:
    assert chunk.non_air_count == int(np.count_nonzero(dense))
    origin = chunk.pos.block_origin()
    for lx in range(CHUNK_SIZE):
        for lz in range(CHUNK_SIZE):
            assert chunk.surface_height(origin.x + lx, origin.z + lz) == _dense_surface(
                dense, lx, lz
            ), (chunk.pos, lx, lz)


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_generated_chunks_match_dense_reference(seed):
    reference = DenseTerrainReference(seed)
    generator = TerrainGenerator(seed)
    for pos in DIFFERENTIAL_CHUNKS:
        dense = reference.generate(pos)
        chunk = generator.generate(pos)
        assert np.array_equal(chunk.blocks, dense), pos
        origin = pos.block_origin()
        read = [
            chunk.get_block(BlockPos(x, y, z))
            for x in range(origin.x, origin.x + CHUNK_SIZE)
            for y in range(WORLD_HEIGHT)
            for z in range(origin.z, origin.z + CHUNK_SIZE)
        ]
        assert read == dense.ravel().tolist(), pos
        _assert_census_matches(chunk, dense)
        for x, z in ((origin.x, origin.z), (origin.x + 15, origin.z + 7)):
            assert generator.height_at(x, z) == reference.height_at(x, z)


# ----------------------------------------------------------------------
# Edits keep the census and the surface table exact
# ----------------------------------------------------------------------

_GENERATOR = TerrainGenerator(1234)
#: A chunk with many trees, so canopies overlap and overhang neighbours.
_FORESTED = next(
    pos
    for pos in (ChunkPos(cx, cz) for cx in range(20) for cz in range(20))
    if len(_GENERATOR.generate(pos)._base.trees) >= 4 * 12
)
_BLOCKS = list(BlockType)

edit_ops = st.lists(
    st.tuples(
        st.sampled_from(["dig-top", "place-above", "restore", "canopy", "anywhere"]),
        st.integers(0, CHUNK_SIZE * CHUNK_SIZE - 1),
        st.integers(0, WORLD_HEIGHT - 1),
        st.sampled_from(_BLOCKS),
    ),
    max_size=60,
)


def _fresh(pos: ChunkPos) -> Chunk:
    return _GENERATOR.generate(pos) if pos == _FORESTED else Chunk(pos)


@settings(max_examples=40, deadline=None)
@given(ops=edit_ops, forested=st.booleans())
def test_edits_keep_census_and_surface_exact(ops, forested):
    pos = _FORESTED if forested else ChunkPos(-3, 5)
    chunk = _fresh(pos)
    base = _fresh(pos)
    origin = pos.block_origin()
    trees = chunk._base.trees if forested else b""
    edited: list[tuple[int, int, int]] = []
    for kind, column, y, block in ops:
        lx, lz = divmod(column, CHUNK_SIZE)
        x, z = origin.x + lx, origin.z + lz
        if kind == "dig-top":
            y, block = chunk.surface_height(x, z), BlockType.AIR
            if y < 0:
                continue
        elif kind == "place-above":
            y = chunk.surface_height(x, z) + 1 + y % 3
            if y >= WORLD_HEIGHT or block == BlockType.AIR:
                continue
        elif kind == "restore":
            if not edited:
                continue
            x, y, z = edited[column % len(edited)]
            block = base.get_block(BlockPos(x, y, z))
        elif kind == "canopy":
            if not trees:
                continue
            i = 4 * (column % (len(trees) // 4))
            tx, tz, surface, trunk = trees[i : i + 4]
            dx, dz = ((-1, -1), (1, 0), (0, 1), (-1, 1))[y % 4]
            x, z = origin.x + tx + dx, origin.z + tz + dz
            y = surface + trunk + y % 2
        chunk.set_block(BlockPos(x, y, z), block)
        edited.append((x, y, z))
    dense = chunk.blocks
    _assert_census_matches(chunk, dense)
    differs = np.argwhere(dense != base.blocks)
    assert sorted(chunk.edits) == sorted(
        (lx * CHUNK_SIZE + lz) * WORLD_HEIGHT + y for lx, y, lz in differs.tolist()
    )


def test_restoring_the_base_block_drops_the_edit():
    chunk = _GENERATOR.generate(_FORESTED)
    origin = _FORESTED.block_origin()
    top = BlockPos(origin.x + 8, chunk.surface_height(origin.x + 8, origin.z + 8), origin.z + 8)
    generated = chunk.get_block(top)
    census = chunk.non_air_count
    chunk.set_block(top, BlockType.AIR)
    assert chunk.surface_height(top.x, top.z) < top.y
    assert chunk.non_air_count == census - 1
    chunk.set_block(top, generated)
    assert chunk.edits == {}
    assert chunk.non_air_count == census
    assert chunk.surface_height(top.x, top.z) == top.y
    assert chunk.modified_count == 2


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def _arrays_held(obj, depth: int = 2) -> list[np.ndarray]:
    """ndarrays reachable from ``obj``'s slots, ``depth`` objects deep."""
    found = []
    for name in getattr(type(obj), "__slots__", ()):
        value = getattr(obj, name, None)
        if isinstance(value, np.ndarray):
            found.append(value)
        elif depth > 1 and hasattr(type(value), "__slots__"):
            found.extend(_arrays_held(value, depth - 1))
    return found


def test_generated_chunks_retain_under_2_kib_and_hold_no_block_array():
    world = World(seed=1)
    world.get_chunk(ChunkPos(-1, -1))  # warm module-level caches
    count = 1000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            world.get_chunk(ChunkPos(i % 40, i // 40))
        retained = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert retained <= 2048, f"{retained:.0f} bytes retained per chunk"

    chunks = list(world.loaded_chunks())
    for chunk in chunks[:50]:
        origin = chunk.pos.block_origin()
        chunk.set_block(BlockPos(origin.x + 3, 40, origin.z + 3), BlockType.BRICK)
        chunk.set_block(BlockPos(origin.x + 5, 1, origin.z + 5), BlockType.AIR)
    for chunk in chunks:
        assert all(array.nbytes < 1024 for array in _arrays_held(chunk)), chunk
