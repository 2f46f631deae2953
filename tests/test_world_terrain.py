"""Unit tests for the deterministic terrain generator.

The batched pass (S33) is held to two references: a loop of
``generate`` (the one-chunk case of the same pass) and
``DenseTerrainReference`` in ``tests/conftest.py``, the generator as it
was one octave and one chunk at a time.
"""

import random

import numpy as np
import pytest

from repro.world.block import BlockType
from repro.world.chunk import WORLD_HEIGHT
from repro.world.geometry import CHUNK_SIZE, BlockPos, ChunkPos
from repro.world.terrain import SEA_LEVEL, TerrainGenerator
from repro.world.world import World

from tests.conftest import DenseTerrainReference


@pytest.fixture(scope="module")
def generator() -> TerrainGenerator:
    return TerrainGenerator(seed=2024)


def test_generation_is_deterministic(generator):
    a = generator.generate(ChunkPos(3, -2))
    b = TerrainGenerator(seed=2024).generate(ChunkPos(3, -2))
    assert np.array_equal(a.blocks, b.blocks)


def test_different_seeds_differ():
    a = TerrainGenerator(seed=1).generate(ChunkPos(0, 0))
    b = TerrainGenerator(seed=2).generate(ChunkPos(0, 0))
    assert not np.array_equal(a.blocks, b.blocks)


def test_different_chunks_differ(generator):
    a = generator.generate(ChunkPos(0, 0))
    b = generator.generate(ChunkPos(10, 10))
    assert not np.array_equal(a.blocks, b.blocks)


def test_bedrock_floor(generator):
    chunk = generator.generate(ChunkPos(1, 1))
    assert np.all(chunk.blocks[:, 0, :] == int(BlockType.BEDROCK))


def test_heights_within_bounds(generator):
    chunk = generator.generate(ChunkPos(5, 5))
    for x in range(0, 16, 5):
        for z in range(0, 16, 5):
            surface = chunk.surface_height(x, z)
            assert 0 < surface < WORLD_HEIGHT


def test_height_at_matches_generated_surface(generator):
    pos = ChunkPos(2, 2)
    chunk = generator.generate(pos)
    origin = pos.block_origin()
    # Probe a column without trees: compare against the terrain height,
    # allowing for water cover near sea level.
    x, z = origin.x + 8, origin.z + 8
    height = generator.height_at(x, z)
    column_block = chunk.get_block(BlockPos(x, height, z))
    assert column_block in (BlockType.GRASS, BlockType.SAND)


def test_water_fills_to_sea_level(generator):
    # Scan for a below-sea-level column; terrain range guarantees some exist
    # somewhere, but not necessarily in a given chunk, so scan a few.
    for cx in range(6):
        blocks = generator.generate(ChunkPos(cx, 0)).blocks
        for x in range(16):
            for z in range(16):
                surface_terrain = None
                column = blocks[x, :, z]
                water_levels = np.nonzero(column == int(BlockType.WATER))[0]
                if water_levels.size:
                    assert water_levels.max() <= SEA_LEVEL
                    return
    pytest.skip("no water column in scanned area for this seed")


def test_generation_does_not_count_as_modification(generator):
    chunk = generator.generate(ChunkPos(7, 7))
    assert chunk.modified_count == 0


def test_non_air_census_is_consistent(generator):
    chunk = generator.generate(ChunkPos(4, -4))
    assert chunk.non_air_count == int(np.count_nonzero(chunk.blocks))


def test_continuity_across_chunk_borders(generator):
    """Heightmap is continuous: adjacent columns across a border differ
    by a bounded amount (no seams)."""
    left = generator.height_at(15, 8)
    right = generator.height_at(16, 8)
    assert abs(left - right) <= 6


#: Batches as interest management loads them: a crossing's new row or
#: column, a diagonal crossing's L, a join's single chunk — placed at the
#: origin, at negative and at large coordinates.
BATCH_SHAPES = {
    "row": [ChunkPos(cx, 0) for cx in range(-5, 6)],
    "column": [ChunkPos(0, cz) for cz in range(-5, 6)],
    "L": [ChunkPos(cx, 5) for cx in range(-5, 6)] + [ChunkPos(5, cz) for cz in range(-5, 5)],
    "singleton": [ChunkPos(0, 0)],
}
BATCH_OFFSETS = [(0, 0), (-4001, -2999), (123456, -654321)]


def reference_heights(reference: DenseTerrainReference, pos: ChunkPos) -> np.ndarray:
    origin = pos.block_origin()
    xs, zs = np.meshgrid(
        np.arange(origin.x, origin.x + CHUNK_SIZE, dtype=np.int64),
        np.arange(origin.z, origin.z + CHUNK_SIZE, dtype=np.int64),
        indexing="ij",
    )
    return reference._heightmap(xs, zs)


def generated(chunk):
    """What a chunk was generated as: heights, trees, census, column tops."""
    base = chunk._base
    return base.heights, base.trees, chunk.non_air_count, bytes(chunk._tops)


@pytest.mark.parametrize("offset", BATCH_OFFSETS, ids=str)
@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=str)
@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_generate_many_equals_a_generate_loop_and_the_dense_reference(seed, shape, offset):
    generator = TerrainGenerator(seed)
    reference = DenseTerrainReference(seed)
    positions = [ChunkPos(pos.cx + offset[0], pos.cz + offset[1]) for pos in BATCH_SHAPES[shape]]
    batch = generator.generate_many(positions)
    assert [chunk.pos for chunk in batch] == positions
    assert [generated(chunk) for chunk in batch] == [
        generated(generator.generate(pos)) for pos in positions
    ]
    for chunk in batch:
        heights = np.frombuffer(chunk._base.heights, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(heights, reference_heights(reference, chunk.pos)), chunk.pos
    # Cell reads, and the census against a dense recount, at both ends.
    for chunk in (batch[0], batch[-1]):
        dense = reference.generate(chunk.pos)
        assert np.array_equal(chunk.blocks, dense), chunk.pos
        assert chunk.non_air_count == int(np.count_nonzero(dense))


def test_generate_many_chunks_own_their_bytes():
    batch = TerrainGenerator(1).generate_many(BATCH_SHAPES["row"])
    for chunk in batch:
        assert type(chunk._base.heights) is bytes and len(chunk._base.heights) == 256
        assert type(chunk._base.trees) is bytes
    assert TerrainGenerator(1).generate_many([]) == []


@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_height_at_is_unchanged(seed):
    generator = TerrainGenerator(seed)
    reference = DenseTerrainReference(seed)
    rng = random.Random(seed)
    for __ in range(1000):
        x = rng.randint(-3_000_000, 3_000_000)
        z = rng.randint(-3_000_000, 3_000_000)
        assert generator.height_at(x, z) == reference.height_at(x, z), (x, z)


def test_get_chunks_loads_as_a_get_chunk_loop_does():
    """``World.get_chunks`` inserts in the order a ``get_chunk`` loop
    does, returns the loaded chunk objects themselves (edits included),
    and never regenerates a loaded chunk."""
    batched, looped = World(seed=5), World(seed=5)
    for world in (batched, looped):
        world.get_chunk(ChunkPos(2, 0))
        world.set_block(BlockPos(33, 60, 1), BlockType.STONE)
    loaded = batched.get_chunk(ChunkPos(2, 0))
    requested = []
    generate_many = batched.generator.generate_many

    def spy(positions):
        requested.append(list(positions))
        return generate_many(positions)

    batched.generator.generate_many = spy
    positions = [ChunkPos(3, 0), ChunkPos(2, 0), ChunkPos(-1, 4), ChunkPos(3, 0), ChunkPos(0, 0)]
    chunks = batched.get_chunks(positions)
    for pos in positions:
        looped.get_chunk(pos)
    assert [chunk.pos for chunk in chunks] == positions
    assert chunks[1] is loaded and chunks[0] is chunks[3]
    assert batched.get_block(BlockPos(33, 60, 1)) == BlockType.STONE
    assert [chunk.pos for chunk in batched.loaded_chunks()] == [
        chunk.pos for chunk in looped.loaded_chunks()
    ]
    assert requested == [[ChunkPos(3, 0), ChunkPos(-1, 4), ChunkPos(0, 0)]]
    assert batched.get_chunks(positions) == chunks
    assert batched.get_chunks([]) == []
    assert len(requested) == 1  # everything was loaded the second time
    assert [generated(chunk) for chunk in chunks] == [
        generated(looped.get_chunk(pos)) for pos in positions
    ]
