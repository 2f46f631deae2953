"""World-to-dyconit partitioning.

The paper lets games "partition offline the game-world and its objects
into units". A partitioner maps world events to dyconit ids and player
view areas to dyconit-id sets. Three granularities are provided — they
are the subject of the E8(b) granularity ablation:

* :class:`ChunkPartitioner` — one dyconit per 16x16 chunk (default);
* :class:`RegionPartitioner` — one dyconit per NxN block of chunks;
* :class:`GlobalPartitioner` — a single dyconit for the whole world.

Chat is global under every partitioner.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.world.events import ChatEvent, WorldEvent
from repro.world.geometry import ChunkPos, chunks_in_radius

GLOBAL_DYCONIT: Hashable = ("global",)


class DyconitPartitioner:
    """Strategy interface mapping world structure onto dyconits."""

    def dyconit_for_event(self, event: WorldEvent) -> Hashable:
        """The dyconit an event must be committed to."""
        raise NotImplementedError

    def dyconit_for_chunk(self, chunk: ChunkPos) -> Hashable:
        """The dyconit owning a chunk."""
        raise NotImplementedError

    def dyconits_for_view(self, center: ChunkPos, radius: int) -> dict[Hashable, None]:
        """Dyconits a player with the given view area must subscribe to,
        as a dict-as-ordered-set in deterministic view-scan order.

        The ids are tuples containing strings, so a plain ``set`` would
        iterate in randomized hash order and the subscribe order (hence
        flush order) would differ run to run.

        Always includes the global dyconit (chat and other world-wide
        updates flow through it).
        """
        ids = {
            self.dyconit_for_chunk(chunk): None
            for chunk in chunks_in_radius(center, radius)
        }
        ids[GLOBAL_DYCONIT] = None
        return ids

    def chunk_of(self, dyconit_id: Hashable) -> ChunkPos | None:
        """Representative chunk for spatial policies; None for global."""
        raise NotImplementedError


class ChunkPartitioner(DyconitPartitioner):
    """One dyconit per chunk — the finest spatial granularity."""

    def dyconit_for_event(self, event: WorldEvent) -> Hashable:
        if isinstance(event, ChatEvent):
            return GLOBAL_DYCONIT
        chunk = event.chunk_pos
        if chunk is None:
            return GLOBAL_DYCONIT
        return ("chunk", chunk.cx, chunk.cz)

    def dyconit_for_chunk(self, chunk: ChunkPos) -> Hashable:
        return ("chunk", chunk.cx, chunk.cz)

    def chunk_of(self, dyconit_id: Hashable) -> ChunkPos | None:
        if isinstance(dyconit_id, tuple) and dyconit_id and dyconit_id[0] == "chunk":
            return ChunkPos(dyconit_id[1], dyconit_id[2])
        return None


class RegionPartitioner(DyconitPartitioner):
    """One dyconit per ``region_size`` x ``region_size`` chunk block."""

    def __init__(self, region_size: int = 4) -> None:
        if region_size < 1:
            raise ValueError(f"region size must be >= 1, got {region_size}")
        self.region_size = region_size

    def _region(self, chunk: ChunkPos) -> tuple[int, int]:
        # Floor division keeps negative coordinates in contiguous regions.
        return (chunk.cx // self.region_size, chunk.cz // self.region_size)

    def dyconit_for_event(self, event: WorldEvent) -> Hashable:
        if isinstance(event, ChatEvent):
            return GLOBAL_DYCONIT
        chunk = event.chunk_pos
        if chunk is None:
            return GLOBAL_DYCONIT
        rx, rz = self._region(chunk)
        return ("region", self.region_size, rx, rz)

    def dyconit_for_chunk(self, chunk: ChunkPos) -> Hashable:
        rx, rz = self._region(chunk)
        return ("region", self.region_size, rx, rz)

    def chunk_of(self, dyconit_id: Hashable) -> ChunkPos | None:
        if isinstance(dyconit_id, tuple) and dyconit_id and dyconit_id[0] == "region":
            __, size, rx, rz = dyconit_id
            # Center chunk of the region.
            return ChunkPos(rx * size + size // 2, rz * size + size // 2)
        return None


class GlobalPartitioner(DyconitPartitioner):
    """Everything in a single dyconit — the coarsest granularity."""

    def dyconit_for_event(self, event: WorldEvent) -> Hashable:
        return GLOBAL_DYCONIT

    def dyconit_for_chunk(self, chunk: ChunkPos) -> Hashable:
        return GLOBAL_DYCONIT

    def dyconits_for_view(self, center: ChunkPos, radius: int) -> dict[Hashable, None]:
        return {GLOBAL_DYCONIT: None}

    def chunk_of(self, dyconit_id: Hashable) -> ChunkPos | None:
        return None


def parse_spatial_id(dyconit_id: Hashable) -> ChunkPos | None:
    """Representative chunk of a standard spatial id, or None.

    Understands the two spatial id shapes used across partitioners and
    runtime merging — ``("chunk", cx, cz)`` and ``("region", size, rx,
    rz)`` — so spatial policies can locate a merged dyconit even when the
    installed partitioner would never produce its id itself.
    """
    if not (isinstance(dyconit_id, tuple) and dyconit_id):
        return None
    if dyconit_id[0] == "chunk" and len(dyconit_id) == 3:
        return ChunkPos(dyconit_id[1], dyconit_id[2])
    if dyconit_id[0] == "region" and len(dyconit_id) == 4:
        __, size, rx, rz = dyconit_id
        return ChunkPos(rx * size + size // 2, rz * size + size // 2)
    return None


def centroid_of(dyconit_id: Hashable, partitioner: DyconitPartitioner):
    """Continuous world position representing a dyconit, or None."""
    chunk = parse_spatial_id(dyconit_id)
    if chunk is None:
        chunk = partitioner.chunk_of(dyconit_id)
    if chunk is None:
        return None
    return chunk.center()


def centroid_xz(dyconit_id: Hashable, partitioner: DyconitPartitioner) -> tuple[float, float]:
    """``(x, z)`` of :func:`centroid_of`, the row a spatial policy measures
    a :class:`~repro.core.policy.PairTable` against; NaN for the global
    dyconit and for ids with no place in the world."""
    if dyconit_id != GLOBAL_DYCONIT:
        center = centroid_of(dyconit_id, partitioner)
        if center is not None:
            return (center.x, center.z)
    return (math.nan, math.nan)
