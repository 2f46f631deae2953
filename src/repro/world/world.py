"""The authoritative world.

The :class:`World` owns all chunks and entities, applies every mutation,
and notifies registered listeners with one :class:`WorldEvent` per
mutation. The server's broadcast path (vanilla or dyconit-mediated) is
just another listener.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.world.block import BlockType
from repro.world.chunk import WORLD_HEIGHT, Chunk
from repro.world.entity import Entity, EntityKind
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntityMoveEvent,
    EntitySpawnEvent,
    WorldEvent,
)
from repro.world.geometry import BlockPos, ChunkPos, Vec3
from repro.world.terrain import TerrainGenerator

WorldListener = Callable[[WorldEvent], None]


class World:
    """Authoritative MVE state: chunk grid plus entity registry."""

    def __init__(
        self,
        seed: int = 0,
        generator: TerrainGenerator | None = None,
        entity_id_start: int = 1,
        entity_id_step: int = 1,
    ) -> None:
        if entity_id_start < 1 or entity_id_step < 1:
            raise ValueError(
                f"entity id allocation must start >= 1 with step >= 1, got "
                f"start={entity_id_start}, step={entity_id_step}"
            )
        self.seed = seed
        self.generator = generator if generator is not None else TerrainGenerator(seed)
        self._chunks: dict[ChunkPos, Chunk] = {}
        self._entities: dict[int, Entity] = {}
        #: Chunk buckets are insertion-ordered dicts, not sets: bucket
        #: iteration order feeds entity-snapshot packet order, and a
        #: set's order depends on its whole insert/delete *history* —
        #: impossible to reproduce when a world is rebuilt from a
        #: checkpoint. Dict order is plain insertion order, which a
        #: restore can replay exactly (same trick as ``ViewerIndex``).
        self._entities_by_chunk: dict[ChunkPos, dict[int, None]] = {}
        self._listeners: list[WorldListener] = []
        #: Auto-allocated ids walk ``start, start+step, start+2*step, ...``.
        #: A sharded cluster gives shard *i* of *N* the stride
        #: ``(i+1, N)`` so shards can mint ids concurrently without a
        #: coordinator; the default ``(1, 1)`` is the legacy single-server
        #: sequence, which keeps 1-shard runs byte-identical to it.
        self._next_entity_id = entity_id_start
        self._entity_id_step = entity_id_step
        self._manual_time = 0.0
        #: When set (the engine wires it to the simulation clock), event
        #: timestamps follow it; otherwise ``time`` is set manually.
        self.time_source: Callable[[], float] | None = None

    @property
    def time(self) -> float:
        if self.time_source is not None:
            return self.time_source()
        return self._manual_time

    @time.setter
    def time(self, value: float) -> None:
        self._manual_time = value

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------

    def add_listener(self, listener: WorldListener) -> None:
        self._listeners.append(listener)

    def _emit(self, event: WorldEvent) -> None:
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Chunks and blocks
    # ------------------------------------------------------------------

    def get_chunk(self, pos: ChunkPos) -> Chunk:
        """Return the chunk at ``pos``, generating it on first access."""
        chunk = self._chunks.get(pos)
        if chunk is None:
            chunk = self.generator.generate(pos)
            self._chunks[pos] = chunk
        return chunk

    def get_chunks(self, positions: Sequence[ChunkPos]) -> list[Chunk]:
        """The chunks at ``positions``, in order: :meth:`get_chunk` over
        them, with the missing ones generated in one pass and loaded in
        the order a :meth:`get_chunk` loop loads them."""
        chunks = self._chunks
        missing = [pos for pos in dict.fromkeys(positions) if pos not in chunks]
        if missing:
            for pos, chunk in zip(missing, self.generator.generate_many(missing)):
                chunks[pos] = chunk
        return [chunks[pos] for pos in positions]

    def is_chunk_loaded(self, pos: ChunkPos) -> bool:
        return pos in self._chunks

    @property
    def loaded_chunk_count(self) -> int:
        return len(self._chunks)

    def loaded_chunks(self) -> Iterator[Chunk]:
        return iter(self._chunks.values())

    def get_block(self, pos: BlockPos) -> BlockType:
        return self.get_chunk(pos.to_chunk_pos()).get_block(pos)

    def set_block(self, pos: BlockPos, block: BlockType, actor_id: int | None = None) -> bool:
        """Set a block; emits a :class:`BlockChangeEvent`.

        Returns ``False`` (and emits nothing) if the block already had
        that type, matching server behaviour of dropping no-op changes.
        """
        if not (0 <= pos.y < WORLD_HEIGHT):
            raise ValueError(f"y={pos.y} outside world height [0, {WORLD_HEIGHT})")
        chunk = self.get_chunk(pos.to_chunk_pos())
        old = chunk.get_block(pos)
        if old == block:
            return False
        chunk.set_block(pos, block)
        self._emit(
            BlockChangeEvent(
                time=self.time, pos=pos, old_block=old, new_block=block, actor_id=actor_id
            )
        )
        return True

    def surface_height(self, x: int, z: int) -> int:
        """Highest non-air y at the given world column."""
        return self.get_chunk(ChunkPos(x >> 4, z >> 4)).surface_height(x, z)

    def surface_position(self, x: float, z: float) -> Vec3:
        """A standing position on top of the terrain at (x, z)."""
        height = self.surface_height(int(x), int(z))
        return Vec3(x, float(height + 1), z)

    # ------------------------------------------------------------------
    # Entities
    # ------------------------------------------------------------------

    @property
    def entity_count(self) -> int:
        return len(self._entities)

    def entities(self) -> Iterator[Entity]:
        return iter(self._entities.values())

    def get_entity(self, entity_id: int) -> Entity | None:
        return self._entities.get(entity_id)

    def spawn_entity(
        self,
        kind: EntityKind,
        position: Vec3,
        name: str = "",
        entity_id: int | None = None,
    ) -> Entity:
        """Spawn an entity; emits an :class:`EntitySpawnEvent`.

        ``entity_id`` may be given explicitly to materialize an entity
        whose identity was minted elsewhere (a ghost replica of a remote
        shard's entity, or a session avatar adopted in a handoff). An
        explicit id never advances the auto-allocation counter.
        """
        if entity_id is None:
            entity_id = self._next_entity_id
            self._next_entity_id += self._entity_id_step
        elif entity_id in self._entities:
            raise ValueError(f"entity id {entity_id} already exists in this world")
        entity = Entity(entity_id=entity_id, kind=kind, position=position, name=name)
        self._entities[entity.entity_id] = entity
        self._entities_by_chunk.setdefault(entity.chunk_pos, {})[entity.entity_id] = None
        self._emit(
            EntitySpawnEvent(
                time=self.time,
                entity_id=entity.entity_id,
                kind=kind,
                position=position,
                name=name,
            )
        )
        return entity

    def despawn_entity(self, entity_id: int) -> None:
        entity = self._entities.pop(entity_id, None)
        if entity is None:
            raise KeyError(f"no entity with id {entity_id}")
        self._unindex(entity)
        self._emit(
            EntityDespawnEvent(time=self.time, entity_id=entity_id, position=entity.position)
        )

    def move_entity(
        self, entity_id: int, new_position: Vec3, yaw: float | None = None,
        pitch: float | None = None,
    ) -> None:
        """Move an entity; emits an :class:`EntityMoveEvent`."""
        entity = self._entities.get(entity_id)
        if entity is None:
            raise KeyError(f"no entity with id {entity_id}")
        old_position = entity.position
        old_chunk = entity.chunk_pos
        entity.position = new_position
        if yaw is not None:
            entity.yaw = yaw
        if pitch is not None:
            entity.pitch = pitch
        new_chunk = entity.chunk_pos
        if new_chunk != old_chunk:
            self._unindex_at(entity_id, old_chunk)
            self._entities_by_chunk.setdefault(new_chunk, {})[entity_id] = None
        self._emit(
            EntityMoveEvent(
                time=self.time,
                entity_id=entity_id,
                old_position=old_position,
                new_position=new_position,
                yaw=entity.yaw,
                pitch=entity.pitch,
            )
        )

    def entities_in_chunk(self, pos: ChunkPos) -> list[Entity]:
        ids = self._entities_by_chunk.get(pos, ())
        return [self._entities[entity_id] for entity_id in ids]

    def chat(self, sender_id: int, text: str) -> None:
        self._emit(ChatEvent(time=self.time, sender_id=sender_id, text=text))

    def _unindex(self, entity: Entity) -> None:
        self._unindex_at(entity.entity_id, entity.chunk_pos)

    def _unindex_at(self, entity_id: int, chunk: ChunkPos) -> None:
        """Drop an entity from one chunk bucket, pruning the bucket when it
        empties — a wandering entity must not leave a dead bucket behind
        for every chunk it ever crossed."""
        bucket = self._entities_by_chunk.get(chunk)
        if bucket is None:
            return
        bucket.pop(entity_id, None)
        if not bucket:
            del self._entities_by_chunk[chunk]
