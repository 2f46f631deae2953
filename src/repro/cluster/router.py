"""Chunk→shard ownership map.

The router is the cluster's *static* partitioning function: every chunk
column is owned by exactly one shard, every shard owns a contiguous
(periodic) set of vertical chunk strips, and everyone — shards, the
facade, the invariant auditor — derives ownership from the same pure
function, so there is no ownership state to keep consistent.

Strips run along the z axis: chunk ``(cx, cz)`` belongs to strip
``cx // strip_width`` and the strip belongs to shard ``strip % shards``.
Floor division keeps negative coordinates contiguous, and the modulo
wraps the strip sequence so every shard owns the same share of any large
region. The world origin ``cx == 0`` is always a strip boundary — shard
0 east of it, shard N-1 west — which makes the origin-centred workloads
(village, gathering) natural cross-shard stress tests.
"""

from __future__ import annotations

from repro.world.geometry import ChunkPos, Vec3


class ShardRouter:
    """Pure chunk→shard ownership function for an N-shard cluster."""

    def __init__(self, shards: int, strip_width: int = 4) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if strip_width < 1:
            raise ValueError(f"strip width must be >= 1 chunks, got {strip_width}")
        self.shards = shards
        self.strip_width = strip_width

    def shard_for_chunk(self, chunk: ChunkPos) -> int:
        return (chunk.cx // self.strip_width) % self.shards

    def shard_for_position(self, position: Vec3) -> int:
        return self.shard_for_chunk(position.to_chunk_pos())

    def owns(self, shard_id: int, chunk: ChunkPos) -> bool:
        return self.shard_for_chunk(chunk) == shard_id

