"""Unit tests for the update-to-packet codec."""

import pytest

from repro.net.protocol import (
    BlockChangePacket,
    ChatMessagePacket,
    DestroyEntitiesPacket,
    EntityPositionPacket,
    EntityTeleportPacket,
    MultiBlockChangePacket,
    SpawnEntityPacket,
)
from repro.server.codec import SessionCodec
from repro.server.session import PlayerSession
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntityMoveEvent,
    EntitySpawnEvent,
)
from repro.world.geometry import BlockPos, ChunkPos, Vec3, chunks_in_radius


@pytest.fixture
def codec(world):
    return SessionCodec(world)


@pytest.fixture
def session():
    s = PlayerSession(client_id=1, entity_id=100, name="alice", view_distance=5)
    s.view_chunks = set(chunks_in_radius(ChunkPos(0, 0), 5))
    return s


def spawn_event(entity_id=7, pos=Vec3(4, 30, 4), kind=EntityKind.ZOMBIE):
    return EntitySpawnEvent(0.0, entity_id, kind, pos)


def move_event(entity_id=7, old=Vec3(4, 30, 4), new=Vec3(5, 30, 4)):
    return EntityMoveEvent(1.0, entity_id, old, new)


class TestEntityEncoding:
    def test_spawn_then_move_uses_relative(self, codec, session):
        packets = codec.encode(session, [(None, [spawn_event(), move_event()])])
        assert isinstance(packets[0], SpawnEntityPacket)
        assert isinstance(packets[1], EntityPositionPacket)

    def test_move_of_unknown_entity_synthesizes_spawn(self, codec, session, world):
        entity = world.spawn_entity(EntityKind.COW, Vec3(4, 30, 4))
        packets = codec.encode(
            session, [(None, [move_event(entity.entity_id, new=Vec3(5, 30, 4))])]
        )
        assert len(packets) == 1
        assert isinstance(packets[0], SpawnEntityPacket)
        assert packets[0].entity_kind == EntityKind.COW

    def test_move_of_despawned_unknown_entity_is_dropped(self, codec, session):
        packets = codec.encode(session, [(None, [move_event(entity_id=999)])])
        assert packets == []

    def test_large_merged_move_becomes_teleport(self, codec, session):
        packets = codec.encode(
            session,
            [(None, [spawn_event(), move_event(new=Vec3(40.0, 30.0, 4.0))])],
        )
        assert isinstance(packets[1], EntityTeleportPacket)

    def test_own_movement_never_echoed(self, codec, session):
        packets = codec.encode(session, [(None, [move_event(entity_id=session.entity_id)])])
        assert packets == []

    def test_own_spawn_never_sent(self, codec, session):
        packets = codec.encode(session, [(None, [spawn_event(entity_id=session.entity_id)])])
        assert packets == []

    def test_despawns_batch_into_one_packet(self, codec, session):
        updates = [spawn_event(1), spawn_event(2)]
        codec.encode(session, [(None, updates)])
        packets = codec.encode(
            session,
            [
                (
                    None,
                    [
                        EntityDespawnEvent(2.0, 1, Vec3(4, 30, 4)),
                        EntityDespawnEvent(2.0, 2, Vec3(4, 30, 4)),
                    ],
                )
            ],
        )
        assert len(packets) == 1
        assert isinstance(packets[0], DestroyEntitiesPacket)
        assert set(packets[0].entity_ids) == {1, 2}
        assert session.known_entities == {}

    def test_despawn_of_unknown_entity_is_silent(self, codec, session):
        packets = codec.encode(session, [(None, [EntityDespawnEvent(0.0, 42, Vec3(0, 30, 0))])])
        assert packets == []

    def test_move_out_of_view_destroys_replica(self, codec, session):
        codec.encode(session, [(None, [spawn_event()])])
        assert 7 in session.known_entities
        far = Vec3(500.0, 30.0, 500.0)
        packets = codec.encode(session, [(None, [move_event(new=far)])])
        assert len(packets) == 1
        assert isinstance(packets[0], DestroyEntitiesPacket)
        assert 7 not in session.known_entities

    def test_spawn_outside_view_skipped(self, codec, session):
        packets = codec.encode(session, [(None, [spawn_event(pos=Vec3(500, 30, 500))])])
        assert packets == []

    def test_duplicate_spawn_not_resent(self, codec, session):
        codec.encode(session, [(None, [spawn_event()])])
        packets = codec.encode(session, [(None, [spawn_event()])])
        assert packets == []

    def test_relative_move_tracks_last_sent_position(self, codec, session):
        codec.encode(session, [(None, [spawn_event()])])
        codec.encode(session, [(None, [move_event(new=Vec3(5, 30, 4))])])
        packets = codec.encode(
            session, [(None, [move_event(old=Vec3(5, 30, 4), new=Vec3(6, 30, 4))])]
        )
        delta = packets[0].delta
        assert (delta.x, delta.z) == (1.0, 0.0)


class TestBlockEncoding:
    def test_single_change_is_block_change(self, codec, session):
        event = BlockChangeEvent(0.0, BlockPos(1, 30, 1), BlockType.AIR, BlockType.STONE)
        packets = codec.encode(session, [(None, [event])])
        assert isinstance(packets[0], BlockChangePacket)

    def test_multiple_changes_in_chunk_batch(self, codec, session):
        events = [
            BlockChangeEvent(0.0, BlockPos(x, 30, 1), BlockType.AIR, BlockType.PLANKS)
            for x in range(4)
        ]
        packets = codec.encode(session, [(None, events)])
        assert len(packets) == 1
        assert isinstance(packets[0], MultiBlockChangePacket)
        assert len(packets[0].changes) == 4

    def test_changes_in_different_chunks_split(self, codec, session):
        events = [
            BlockChangeEvent(0.0, BlockPos(1, 30, 1), BlockType.AIR, BlockType.STONE),
            BlockChangeEvent(0.0, BlockPos(20, 30, 1), BlockType.AIR, BlockType.STONE),
        ]
        packets = codec.encode(session, [(None, events)])
        assert len(packets) == 2

    def test_merged_block_state_wins(self, codec, session):
        """Later change to the same block supersedes in one batch."""
        events = [
            BlockChangeEvent(0.0, BlockPos(1, 30, 1), BlockType.AIR, BlockType.STONE),
            BlockChangeEvent(1.0, BlockPos(1, 30, 1), BlockType.STONE, BlockType.AIR),
        ]
        packets = codec.encode(session, [(None, events)])
        assert len(packets) == 1
        assert packets[0].block == BlockType.AIR


class TestChatEncoding:
    def test_chat_packet(self, codec, session):
        packets = codec.encode(session, [(None, [ChatEvent(0.0, 9, "hello")])])
        assert isinstance(packets[0], ChatMessagePacket)
        assert packets[0].text == "hello"


class TestSnapshots:
    def test_snapshot_spawns_live_entity(self, codec, session, world):
        entity = world.spawn_entity(EntityKind.SHEEP, Vec3(2, 30, 2))
        packet = codec.encode_entity_snapshot(session, entity.entity_id)
        assert isinstance(packet, SpawnEntityPacket)
        assert entity.entity_id in session.known_entities

    def test_snapshot_skips_known_and_self(self, codec, session, world):
        entity = world.spawn_entity(EntityKind.SHEEP, Vec3(2, 30, 2))
        codec.encode_entity_snapshot(session, entity.entity_id)
        assert codec.encode_entity_snapshot(session, entity.entity_id) is None
        assert codec.encode_entity_snapshot(session, session.entity_id) is None

    def test_snapshot_of_dead_entity_is_none(self, codec, session):
        assert codec.encode_entity_snapshot(session, 424242) is None


class TestSharedMoveFanOut:
    """``encode_move_for_viewers`` hands one packet object to every viewer
    that shares a last-sent position; each viewer must still receive
    exactly what the per-session ``encode`` would have built for it."""

    ENTITY = 7
    START = Vec3(4.0, 30.0, 4.0)

    def viewer(self, client_id, last_sent=None, view=True, update_time=None):
        s = PlayerSession(
            client_id=client_id, entity_id=100 + client_id, name=f"v{client_id}",
            view_distance=5,
        )
        if view:
            s.view_chunks = set(chunks_in_radius(ChunkPos(0, 0), 5))
        if last_sent is not None:
            s.known_entities[self.ENTITY] = last_sent
        if update_time is not None:
            s.entity_update_times[self.ENTITY] = update_time
        return s

    def crowd(self, shared):
        """Every way a viewer can stand towards one move, in one crowd."""
        return [
            self.viewer(1, shared),
            self.viewer(2, shared),
            # Joined late: its snapshot saw the entity somewhere else.
            self.viewer(3, Vec3(3.25, 30.0, 4.5)),
            # Last heard of it far away: the delta no longer fits.
            self.viewer(4, Vec3(40.0, 30.0, 4.0)),
            # No replica: the spawn is synthesized.
            self.viewer(5),
            self.viewer(6),
            # Knows it but no longer views the chunk: destroy on exit.
            self.viewer(7, shared, view=False),
            # Already applied something newer: skipped, state untouched.
            self.viewer(8, shared, update_time=5.0),
            self.viewer(9, shared),
            # Back to the shared position after others intervened.
            self.viewer(10, shared),
        ]

    def state(self, session):
        return (
            dict(session.known_entities),
            dict(session.entity_update_times),
        )

    def test_each_viewer_gets_what_per_session_encode_builds(self, codec, world):
        entity = world.spawn_entity(EntityKind.COW, self.START, entity_id=self.ENTITY)
        assert entity.entity_id == self.ENTITY
        event = move_event(old=self.START, new=Vec3(4.5, 30.0, 4.25))
        fanned, reference = self.crowd(Vec3(4.0, 30.0, 4.0)), self.crowd(self.START)
        own = self.viewer(11, self.START)
        own.entity_id = self.ENTITY

        out = codec.encode_move_for_viewers(
            fanned + [own], event, event.chunk_pos, exclude=9
        )
        got = {session.client_id: packet for session, packet in out}
        assert [session.client_id for session, __ in out] == [1, 2, 3, 4, 5, 6, 7, 10]
        for session in reference:
            if session.client_id == 9:
                continue  # the excluded originator is never encoded for
            expected = codec.encode(session, [(None, [event])])
            assert ([got[session.client_id]] if expected else []) == expected
            twin = fanned[session.client_id - 1]
            assert self.state(twin) == self.state(session)
        assert isinstance(got[1], EntityPositionPacket)
        assert isinstance(got[3], EntityPositionPacket) and got[3] != got[1]
        assert isinstance(got[4], EntityTeleportPacket)
        assert isinstance(got[5], SpawnEntityPacket)
        assert isinstance(got[7], DestroyEntitiesPacket)
        # Shared, not rebuilt: one object per distinct result.
        assert got[1] is got[2] and got[5] is got[6]
        assert got[10] == got[1]
        assert self.ENTITY not in fanned[6].known_entities
        assert self.state(own) == ({self.ENTITY: self.START}, {})

    def test_despawned_unknown_entity_is_dropped_for_every_viewer(self, codec):
        event = move_event(entity_id=999)
        viewers = [self.viewer(1), self.viewer(2)]
        out = codec.encode_move_for_viewers(viewers, event, event.chunk_pos, None)
        assert out == []
        assert all(self.state(v) == ({}, {}) for v in viewers)

    def test_last_reference_to_a_shared_position_dropped_mid_broadcast(self, codec):
        """The sessions' maps hold the only references to the last-sent
        positions; the overwrite frees each as the broadcast passes it. A
        memo keyed by ``id()`` without keeping the object alive could then
        hand a later viewer an earlier viewer's delta."""
        event = move_event(old=self.START, new=Vec3(4.5, 30.0, 4.25))
        viewers = [
            self.viewer(client_id, Vec3(4.0 + 0.01 * (client_id // 3), 30.0, 4.0))
            for client_id in range(1, 61)
        ]
        expected = [
            EntityPositionPacket(
                entity_id=self.ENTITY,
                delta=event.new_position - v.known_entities[self.ENTITY],
            )
            for v in viewers
        ]
        out = codec.encode_move_for_viewers(viewers, event, event.chunk_pos, None)
        assert [packet for __, packet in out] == expected
        assert all(
            v.known_entities[self.ENTITY] is event.new_position for v in viewers
        )
