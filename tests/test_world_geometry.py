"""Unit tests for world geometry."""

import math

import pytest

from repro.world.geometry import BlockPos, ChunkPos, Vec3, chunks_in_radius


class TestVec3:
    def test_arithmetic(self):
        a = Vec3(1.0, 2.0, 3.0)
        b = Vec3(4.0, 5.0, 6.0)
        assert a + b == Vec3(5.0, 7.0, 9.0)
        assert b - a == Vec3(3.0, 3.0, 3.0)
        assert a.scale(2.0) == Vec3(2.0, 4.0, 6.0)

    def test_length(self):
        assert Vec3(3.0, 0.0, 4.0).length() == 5.0
        assert Vec3(0.0, 0.0, 0.0).length() == 0.0

    def test_horizontal_length_ignores_y(self):
        assert Vec3(3.0, 99.0, 4.0).horizontal_length() == 5.0

    def test_distance(self):
        assert Vec3(0, 0, 0).distance_to(Vec3(0, 0, 7)) == 7.0
        assert Vec3(1, 1, 1).horizontal_distance_to(Vec3(4, 50, 5)) == 5.0

    def test_normalized(self):
        n = Vec3(0.0, 10.0, 0.0).normalized()
        assert n == Vec3(0.0, 1.0, 0.0)
        assert Vec3.zero().normalized() == Vec3.zero()

    def test_normalized_unit_length(self):
        n = Vec3(3.0, 4.0, 12.0).normalized()
        assert math.isclose(n.length(), 1.0)

    def test_to_block_pos_floors(self):
        assert Vec3(1.9, 2.1, -0.5).to_block_pos() == BlockPos(1, 2, -1)

    def test_to_chunk_pos(self):
        assert Vec3(17.0, 0.0, -1.0).to_chunk_pos() == ChunkPos(1, -1)
        assert Vec3(0.0, 0.0, 0.0).to_chunk_pos() == ChunkPos(0, 0)


class TestBlockPos:
    def test_to_chunk_pos_positive(self):
        assert BlockPos(16, 0, 31).to_chunk_pos() == ChunkPos(1, 1)

    def test_to_chunk_pos_negative(self):
        # Arithmetic-shift semantics: block -1 is in chunk -1.
        assert BlockPos(-1, 0, -16).to_chunk_pos() == ChunkPos(-1, -1)
        assert BlockPos(-17, 0, -17).to_chunk_pos() == ChunkPos(-2, -2)

    def test_local_coordinates(self):
        assert BlockPos(17, 5, 31).local() == (1, 5, 15)
        assert BlockPos(-1, 3, -16).local() == (15, 3, 0)

    def test_offset(self):
        assert BlockPos(0, 0, 0).offset(dy=3, dz=-1) == BlockPos(0, 3, -1)


class TestChunkPos:
    def test_block_origin(self):
        assert ChunkPos(2, -1).block_origin() == BlockPos(32, 0, -16)

    def test_center(self):
        center = ChunkPos(0, 0).center()
        assert (center.x, center.z) == (8.0, 8.0)

    def test_chebyshev_distance(self):
        assert ChunkPos(0, 0).chebyshev_distance_to(ChunkPos(3, -2)) == 3
        assert ChunkPos(5, 5).chebyshev_distance_to(ChunkPos(5, 5)) == 0


class TestChunksInRadius:
    def test_radius_zero_is_single_chunk(self):
        assert list(chunks_in_radius(ChunkPos(3, 3), 0)) == [ChunkPos(3, 3)]

    def test_radius_counts(self):
        for radius in (1, 2, 5):
            chunks = list(chunks_in_radius(ChunkPos(0, 0), radius))
            assert len(chunks) == (2 * radius + 1) ** 2

    def test_all_within_chebyshev_radius(self):
        center = ChunkPos(-2, 7)
        for chunk in chunks_in_radius(center, 3):
            assert center.chebyshev_distance_to(chunk) <= 3

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            list(chunks_in_radius(ChunkPos(0, 0), -1))
