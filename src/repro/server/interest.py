"""View-distance interest management.

Replicates what a vanilla Minecraft-like server does around each player:
stream the square of chunks within the view distance, spawn/destroy
entity replicas as chunks (or entities) enter and leave the view, and —
in dyconit mode — keep the player's dyconit subscriptions in lockstep
with the view.

Interest management is deliberately *identical* across the vanilla and
dyconit paths: the paper's middleware reuses the existing game codebase,
and keeping this layer shared is what makes the zero-bounds
differential test (vanilla ≡ zero-bounds, packet-for-packet) meaningful.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.partition import GLOBAL_DYCONIT
from repro.net.protocol import (
    ChunkDataPacket,
    ChunkUnloadPacket,
    DestroyEntitiesPacket,
    Packet,
)
from repro.world.chunk import CHUNK_SIZE, WORLD_HEIGHT
from repro.world.geometry import ChunkPos, chunks_in_radius
from repro.server.session import PlayerSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.engine import GameServer


class InterestManager:
    """Maintains per-session view areas and dyconit subscriptions."""

    def __init__(self, server: "GameServer") -> None:
        self.server = server

    # ------------------------------------------------------------------
    # Join / leave
    # ------------------------------------------------------------------

    def sync_on_join(self, session: PlayerSession) -> None:
        """Send the initial view (chunks + entities) and subscribe."""
        center = self._avatar_chunk(session)
        session.anchor_chunk = center
        view = set(chunks_in_radius(center, session.view_distance))
        packets = self._chunk_packets(session, sorted(view, key=lambda c: (c.cx, c.cz)))
        session.view_chunks = view
        self.server.viewers.add_view(session, view)
        self.server.send_packets(session, packets)
        self._subscribe_view(session, set(), view)

    def on_leave(self, session: PlayerSession) -> None:
        self.server.viewers.remove_view(session, session.view_chunks)
        session.view_chunks = set()
        session.known_entities.clear()

    # ------------------------------------------------------------------
    # Player movement
    # ------------------------------------------------------------------

    def refresh(self, session: PlayerSession) -> bool:
        """Re-center the view if the avatar crossed a chunk border.

        Returns True if the view changed (the engine then notifies the
        policy so spatial bounds can be re-derived).
        """
        center = self._avatar_chunk(session)
        if center == session.anchor_chunk:
            return False
        session.anchor_chunk = center
        new_view = set(chunks_in_radius(center, session.view_distance))
        old_view = session.view_chunks
        added = new_view - old_view
        removed = old_view - new_view

        packets = self._chunk_packets(session, sorted(added, key=lambda c: (c.cx, c.cz)))
        for chunk_pos in sorted(removed, key=lambda c: (c.cx, c.cz)):
            packets.append(ChunkUnloadPacket(chunk=chunk_pos))
        # Sweep replicas by *last-sent* position (not current authoritative
        # chunk): an entity may have moved since the client last heard of
        # it, and the client's replica lives where the client believes it.
        destroyed = [
            entity_id
            for entity_id, last_sent in session.known_entities.items()
            if last_sent.to_chunk_pos() not in new_view
        ]
        for entity_id in destroyed:
            session.forget_entity(entity_id)
        if destroyed:
            packets.append(DestroyEntitiesPacket(entity_ids=tuple(destroyed)))

        session.view_chunks = new_view
        self.server.viewers.add_view(session, added)
        self.server.viewers.remove_view(session, removed)
        self.server.send_packets(session, packets)
        self._subscribe_view(session, old_view, new_view)
        return True

    # ------------------------------------------------------------------
    # Entity movement across chunk borders
    # ------------------------------------------------------------------

    def on_entity_crossed(
        self, entity_id: int, old_chunk: ChunkPos, new_chunk: ChunkPos
    ) -> None:
        """Handle an entity moving between chunks.

        Sessions that see the new chunk but not the old get a spawn;
        sessions that see the old but not the new get a destroy. Sessions
        seeing both keep receiving regular move updates.

        Only two groups of sessions can need a packet: viewers of the new
        chunk (spawn side) and sessions whose client holds a replica of
        the entity (destroy side). The viewer index gives both in
        O(viewers + knowers); every other session is provably a no-op in
        a brute-force scan over all sessions, which the test suite keeps
        as the reference this path must match packet for packet.
        """
        index = self.server.viewers
        for session in index.viewers(new_chunk):
            if session.entity_id == entity_id:
                continue
            if entity_id not in session.known_entities:
                packet = self.server.codec.encode_entity_snapshot(session, entity_id)
                if packet is not None:
                    self.server.send_packets(session, [packet])
        for session in index.knowers(entity_id):
            if session.entity_id == entity_id:
                continue
            if not session.sees_chunk(new_chunk):
                # Entity now outside this client's view: drop the replica
                # wherever the client believes it is.
                if session.forget_entity(entity_id):
                    self.server.send_packets(
                        session, [DestroyEntitiesPacket(entity_ids=(entity_id,))]
                    )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _avatar_chunk(self, session: PlayerSession) -> ChunkPos:
        entity = self.server.world.get_entity(session.entity_id)
        if entity is None:
            raise KeyError(f"session {session.client_id} has no avatar entity")
        return entity.chunk_pos

    def _chunk_packets(
        self, session: PlayerSession, positions: list[ChunkPos]
    ) -> list[Packet]:
        """Each chunk's data packet then its entity snapshots, chunk by
        chunk in ``positions`` order. Chunks are loaded one view row
        (``2 * view_distance + 1`` chunks) at a time (S33): a crossing's
        new row is one terrain pass, and a join's batch stays small."""
        world = self.server.world
        row = 2 * session.view_distance + 1
        packets: list[Packet] = []
        for start in range(0, len(positions), row):
            batch = positions[start : start + row]
            for chunk_pos, chunk in zip(batch, world.get_chunks(batch)):
                packets.append(
                    ChunkDataPacket(
                        chunk=chunk_pos,
                        total_blocks=CHUNK_SIZE * CHUNK_SIZE * WORLD_HEIGHT,
                        non_air_blocks=chunk.non_air_count,
                    )
                )
                packets.extend(self._entity_snapshots(session, chunk_pos))
        return packets

    def _entity_snapshots(
        self, session: PlayerSession, chunk_pos: ChunkPos
    ) -> list[Packet]:
        packets: list[Packet] = []
        for entity in self.server.world.entities_in_chunk(chunk_pos):
            packet = self.server.codec.encode_entity_snapshot(session, entity.entity_id)
            if packet is not None:
                packets.append(packet)
        return packets

    def _subscribe_view(
        self, session: PlayerSession, old_view: set[ChunkPos], new_view: set[ChunkPos]
    ) -> None:
        dyconits = self.server.dyconits
        if dyconits is None:
            return
        partitioner = dyconits.partitioner
        center = session.anchor_chunk
        if center is None:
            return
        # Resolve through merge aliases *before* diffing: two chunks merged
        # into one dyconit must not be unsubscribed while either is still
        # in view. Both sides are dict-as-ordered-sets so the subscribe /
        # unsubscribe order is deterministic (dyconit ids contain strings,
        # whose set iteration order is randomized per process).
        new_ids = {
            dyconits.resolve(dyconit_id): None
            for dyconit_id in partitioner.dyconits_for_view(center, session.view_distance)
        }
        old_ids: dict = {}
        if old_view:
            for chunk in old_view:
                old_ids[dyconits.resolve(partitioner.dyconit_for_chunk(chunk))] = None
            # The global dyconit (chat) is part of every view; keep it out
            # of the unsubscribe diff.
            old_ids[GLOBAL_DYCONIT] = None
        subscriber = dyconits.subscriber(session.client_id)
        if subscriber is None:
            return
        # The added ids' bounds come from one policy call (S35).
        added = [dyconit_id for dyconit_id in new_ids if dyconit_id not in old_ids]
        for dyconit_id, bounds in zip(added, dyconits.policy_bounds(added, subscriber)):
            dyconits.subscribe(dyconit_id, subscriber, bounds=bounds)
        for dyconit_id in old_ids:
            if dyconit_id not in new_ids:
                # Updates about an area leaving the view are obsolete: the
                # client is unloading those chunks. Drop, do not flush.
                dyconits.unsubscribe(dyconit_id, session.client_id, flush_pending=False)
