"""Update-batch to packet conversion.

The codec turns a batch of world events (either a single vanilla
broadcast or a merged dyconit flush) into the packets a Minecraft-like
client expects, maintaining the per-session replica bookkeeping that
makes relative-move packets valid:

* block changes within one chunk batch into a multi-block-change packet;
* entity moves become relative moves when the client knows the entity and
  the delta fits, teleports otherwise;
* moves of entities the client has never seen synthesize a spawn first
  (this happens when bound-merging collapsed the original spawn away);
* despawns batch into one destroy-entities packet.

Block-change and despawn batching is per *segment* — one flushed queue,
exactly as one flush produced it — even when a delivery hands several
segments to one :meth:`SessionCodec.encode` call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

from repro.net.protocol import (
    BlockChangePacket,
    ChatMessagePacket,
    DestroyEntitiesPacket,
    EntityPositionPacket,
    EntityTeleportPacket,
    MultiBlockChangePacket,
    Packet,
    SpawnEntityPacket,
)
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntityMoveEvent,
    EntitySpawnEvent,
    WorldEvent,
)
from repro.world.geometry import ChunkPos, Vec3
from repro.server.session import PlayerSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.world.world import World


class SessionCodec:
    """Converts one server's deliveries into packets.

    All per-client state lives in the session. What the codec holds is the
    *move memo*: for every move update encoded since the last
    :meth:`clear_moves`, the update's chunk and each packet built from it,
    one per distinct last-sent position. A move packet is a pure function
    of ``(update, last_sent)``, and the subscribers of one dyconit mostly
    hold the same last-sent position object, so a tick builds each packet
    once however many clients receive it. The memo keeps both referents
    alive and compares them with ``is``, so a reused ``id()`` never
    matches. The engine clears it where each tick's frames leave, and a
    shard after each bus message, so it holds at most one tick's (or one
    bus message's) distinct moves; an entry kept longer would never be
    wrong, only memory.
    """

    def __init__(self, world: "World") -> None:
        self.world = world
        #: ``id(update) -> (update, chunk, {id(last_sent): (last_sent,
        #: packet)})`` for the moves encoded since :meth:`clear_moves`.
        self._moves: dict[int, tuple] = {}

    def clear_moves(self) -> None:
        """Drop the move memo."""
        self._moves.clear()

    def encode(
        self,
        session: PlayerSession,
        segments: Iterable[tuple[Hashable, Sequence[WorldEvent]]],
    ) -> list[Packet]:
        """Convert one delivery — ``(dyconit id, updates)`` segments, each
        in commit-time order — into packets, segment by segment."""
        packets: list[Packet] = []
        for __, updates in segments:
            block_changes: dict = {}  # chunk -> {pos: block}
            despawned: list[int] = []

            for update in updates:
                kind = type(update)
                if kind is EntityMoveEvent:
                    packet = self._encode_move(session, update)
                    if packet is not None:
                        packets.append(packet)
                elif kind is BlockChangeEvent:
                    chunk = update.pos.to_chunk_pos()
                    if not session.sees_chunk(chunk):
                        # The client has not loaded that chunk; it would
                        # discard the change anyway (and re-receives the
                        # block inside the chunk payload if it walks there).
                        continue
                    chunk_changes = block_changes.setdefault(chunk, {})
                    chunk_changes[update.pos] = update.new_block
                elif kind is EntitySpawnEvent:
                    if update.entity_id == session.entity_id:
                        continue  # the client spawns its own avatar locally
                    if not session.sees_chunk(update.position.to_chunk_pos()):
                        continue  # stale queued spawn for an area now out of view
                    last_time = session.entity_update_times.get(update.entity_id)
                    if last_time is not None and update.time < last_time:
                        continue  # superseded by a newer update already applied
                    if update.entity_id not in session.known_entities:
                        session.entity_update_times[update.entity_id] = update.time
                        session.known_entities[update.entity_id] = update.position
                        packets.append(
                            SpawnEntityPacket(
                                entity_id=update.entity_id,
                                entity_kind=update.kind,
                                position=update.position,
                                name=update.name,
                            )
                        )
                elif kind is EntityDespawnEvent:
                    if session.forget_entity(update.entity_id):
                        despawned.append(update.entity_id)
                elif kind is ChatEvent:
                    packets.append(
                        ChatMessagePacket(sender_id=update.sender_id, text=update.text)
                    )

            for chunk, changes in block_changes.items():
                if len(changes) == 1:
                    pos, block = next(iter(changes.items()))
                    packets.append(BlockChangePacket(pos=pos, block=block))
                else:
                    packets.append(
                        MultiBlockChangePacket(
                            chunk=chunk, changes=tuple(sorted(changes.items(), key=str))
                        )
                    )

            if despawned:
                packets.append(DestroyEntitiesPacket(entity_ids=tuple(despawned)))
        return packets

    def _encode_move(
        self, session: PlayerSession, update: EntityMoveEvent
    ) -> Packet | None:
        entity_id = update.entity_id
        if entity_id == session.entity_id:
            return None  # never echo a player's own movement back
        update_times = session.entity_update_times
        last_time = update_times.get(entity_id)
        if last_time is not None and update.time < last_time:
            # A flush from another dyconit already applied a newer state
            # for this entity; applying this one would regress the replica.
            return None
        update_times[entity_id] = update.time
        memo = self._moves.get(id(update))
        if memo is None or memo[0] is not update:
            memo = (update, update.new_position.to_chunk_pos(), {})
            self._moves[id(update)] = memo
        if not session.sees_chunk(memo[1]):
            # The entity ended up outside this client's view (e.g. a
            # merged move that crossed several chunks while queued).
            # Keep the invariant known ⊆ view: destroy the replica.
            if session.forget_entity(entity_id):
                return DestroyEntitiesPacket(entity_ids=(entity_id,))
            return None
        known = session.known_entities
        last_sent = known.get(entity_id)
        if last_sent is None:
            # The spawn was merged away (or the entity walked into view):
            # synthesize it so the client has a replica to move.
            entity = self.world.get_entity(entity_id)
            if entity is None:
                update_times.pop(entity_id, None)
                return None  # already despawned; the despawn will follow
            known[entity_id] = update.new_position
            return SpawnEntityPacket(
                entity_id=entity_id,
                entity_kind=entity.kind,
                position=update.new_position,
                name=entity.name,
            )
        known.overwrite(entity_id, update.new_position)
        built = memo[2]
        hit = built.get(id(last_sent))
        if hit is not None and hit[0] is last_sent:
            return hit[1]
        packet = _move_packet(update, last_sent)
        built[id(last_sent)] = (last_sent, packet)
        return packet

    def encode_move_for_viewers(
        self,
        sessions: Iterable[PlayerSession],
        update: EntityMoveEvent,
        chunk: ChunkPos,
        exclude: int | None,
    ) -> list[tuple[PlayerSession, Packet]]:
        """One move fanned out to the viewers of its chunk (vanilla
        broadcast): ``(session, packet)`` for every session owed one, in
        session order.

        Per session this is :meth:`_encode_move` step for step — the
        bookkeeping is per client and stays so. What is shared is the
        immutable result: the move packet is a function of ``(update,
        last_sent)``, and the viewers of one move almost always hold the
        very same last-sent position object (the previous move's
        ``new_position``), so the packet is built once and handed to each
        of them. The memo is that one position, held by reference and
        compared by identity: holding it is what makes identity safe
        while the overwrite below drops the sessions' own references.
        """
        entity_id = update.entity_id
        time = update.time
        new_position = update.new_position
        shared_last = shared_move = spawn = destroy = None
        out: list[tuple[PlayerSession, Packet]] = []
        for session in sessions:
            if session.client_id == exclude or session.entity_id == entity_id:
                continue
            update_times = session.entity_update_times
            last_time = update_times.get(entity_id)
            if last_time is not None and time < last_time:
                continue
            update_times[entity_id] = time
            if chunk not in session.view_chunks:
                if session.forget_entity(entity_id):
                    if destroy is None:
                        destroy = DestroyEntitiesPacket(entity_ids=(entity_id,))
                    out.append((session, destroy))
                continue
            known = session.known_entities
            last_sent = known.get(entity_id)
            if last_sent is None:
                if spawn is None:
                    entity = self.world.get_entity(entity_id)
                    if entity is None:
                        del update_times[entity_id]
                        continue
                    spawn = SpawnEntityPacket(
                        entity_id=entity_id,
                        entity_kind=entity.kind,
                        position=new_position,
                        name=entity.name,
                    )
                known[entity_id] = new_position
                out.append((session, spawn))
                continue
            known.overwrite(entity_id, new_position)
            if last_sent is not shared_last:
                shared_last = last_sent
                shared_move = _move_packet(update, last_sent)
            out.append((session, shared_move))
        return out

    def encode_entity_snapshot(
        self, session: PlayerSession, entity_id: int
    ) -> Packet | None:
        """Spawn packet for one live entity (initial view sync)."""
        entity = self.world.get_entity(entity_id)
        if entity is None or entity_id == session.entity_id:
            return None
        if entity_id in session.known_entities:
            return None
        session.known_entities[entity_id] = entity.position
        # The snapshot reflects the authoritative present: any update still
        # queued in a dyconit is older than this and must not regress it.
        session.entity_update_times[entity_id] = self.world.time
        return SpawnEntityPacket(
            entity_id=entity.entity_id,
            entity_kind=entity.kind,
            position=entity.position,
            name=entity.name,
        )


def _move_packet(update: EntityMoveEvent, last_sent: Vec3) -> Packet:
    """The packet that takes a replica from ``last_sent`` to the move's
    position: relative when the delta fits, a teleport otherwise."""
    delta = update.new_position - last_sent
    if EntityPositionPacket.fits(delta):
        return EntityPositionPacket(
            entity_id=update.entity_id,
            delta=delta,
            yaw=update.yaw,
            pitch=update.pitch,
        )
    return EntityTeleportPacket(
        entity_id=update.entity_id,
        position=update.new_position,
        yaw=update.yaw,
        pitch=update.pitch,
    )
