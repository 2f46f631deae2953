"""Behavioural tests for interest management."""

import pytest

from repro.core.partition import GLOBAL_DYCONIT
from repro.net.protocol import (
    ChunkDataPacket,
    ChunkUnloadPacket,
    DestroyEntitiesPacket,
    PlayerActionPacket,
    SpawnEntityPacket,
)
from repro.policies.zero import ZeroBoundsPolicy
from repro.world.geometry import ChunkPos, Vec3
from repro.world.world import World


class Client:
    def __init__(self):
        self.packets = []

    def __call__(self, delivered):
        self.packets.append(delivered.packet)

    def of_kind(self, kind):
        return [p for p in self.packets if isinstance(p, kind)]


@pytest.fixture
def server(server_factory):
    return server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)


def walk_to(sim, server, session, target: Vec3, step=4.0):
    """Submit straight-line move actions toward a target, tick by tick."""
    entity = server.world.get_entity(session.entity_id)
    while entity.position.horizontal_distance_to(target) > 0.5:
        direction = (target - entity.position).normalized()
        next_pos = entity.position + direction.scale(step)
        if entity.position.horizontal_distance_to(target) < step:
            next_pos = target
        next_pos = server.world.surface_position(next_pos.x, next_pos.z)
        server.submit_action(
            session.client_id, PlayerActionPacket("move", position=next_pos)
        )
        sim.run_until(sim.now + 50.0)


def test_view_subscriptions_created_on_join(server):
    client = Client()
    session = server.connect("alice", handler=client, position=Vec3(8, 30, 8))
    subs = server.dyconits.subscriptions_of(session.client_id)
    assert GLOBAL_DYCONIT in subs
    assert len(subs) == (2 * session.view_distance + 1) ** 2 + 1


def test_crossing_chunk_border_shifts_view(sim, server):
    client = Client()
    session = server.connect("alice", handler=client, position=Vec3(8, 30, 8))
    client.packets.clear()
    walk_to(sim, server, session, Vec3(24.0, 30.0, 8.0))  # into chunk (1, 0)
    assert session.anchor_chunk == ChunkPos(1, 0)
    loaded = {p.chunk for p in client.of_kind(ChunkDataPacket)}
    unloaded = {p.chunk for p in client.of_kind(ChunkUnloadPacket)}
    assert loaded == {ChunkPos(6, z) for z in range(-5, 6)}
    assert unloaded == {ChunkPos(-5, z) for z in range(-5, 6)}
    subs = server.dyconits.subscriptions_of(session.client_id)
    assert ("chunk", 6, 0) in subs
    assert ("chunk", -5, 0) not in subs


def test_view_changes_load_chunks_a_view_row_at_a_time(sim, server, monkeypatch):
    """A join and a diagonal crossing load their chunks through
    ``World.get_chunks``, at most one view row (2 * view_distance + 1
    chunks) per call, in the order the chunk packets go out."""
    batches = []
    get_chunks = World.get_chunks

    def spy(world, positions):
        batches.append(list(positions))
        return get_chunks(world, positions)

    monkeypatch.setattr(World, "get_chunks", spy)
    client = Client()
    session = server.connect("alice", handler=client, position=Vec3(8, 30, 8))
    row = 2 * session.view_distance + 1
    assert [len(batch) for batch in batches] == [row] * row
    assert [pos for batch in batches for pos in batch] == [
        packet.chunk for packet in client.of_kind(ChunkDataPacket)
    ]
    batches.clear()
    client.packets.clear()
    walk_to(sim, server, session, Vec3(24.0, 30.0, 24.0))  # diagonally into chunk (1, 1)
    assert session.anchor_chunk == ChunkPos(1, 1)
    sent = [packet.chunk for packet in client.of_kind(ChunkDataPacket)]
    assert len(sent) == 2 * row - 1  # the L of a diagonal crossing
    assert [pos for batch in batches for pos in batch] == sent
    assert [len(batch) for batch in batches] == [row, row - 1]


def test_view_change_keeps_subscription_count(sim, server):
    client = Client()
    session = server.connect("alice", handler=client, position=Vec3(8, 30, 8))
    before = len(server.dyconits.subscriptions_of(session.client_id))
    walk_to(sim, server, session, Vec3(40.0, 30.0, 8.0))
    after = len(server.dyconits.subscriptions_of(session.client_id))
    assert before == after


def test_entity_leaving_view_is_destroyed(sim, server):
    """When another player walks beyond the view distance, the observer
    receives a destroy for the replica."""
    alice, bob = Client(), Client()
    a = server.connect("alice", handler=alice, position=Vec3(8, 30, 8))
    b = server.connect("bob", handler=bob, position=Vec3(10, 30, 10))
    alice.packets.clear()
    # Bob treks far east, well past alice's 5-chunk view.
    walk_to(sim, server, b, Vec3(8.0 + 16 * 8, 30.0, 10.0))
    destroys = alice.of_kind(DestroyEntitiesPacket)
    assert any(b.entity_id in p.entity_ids for p in destroys)
    assert b.entity_id not in server.sessions[a.client_id].known_entities


def test_entity_entering_view_is_spawned(sim, server):
    alice, bob = Client(), Client()
    server.connect("alice", handler=alice, position=Vec3(8, 30, 8))
    far = Vec3(8.0 + 16 * 12, 30.0, 8.0)
    b = server.connect("bob", handler=bob, position=server.world.surface_position(far.x, far.z))
    assert [p for p in alice.of_kind(SpawnEntityPacket) if p.name == "bob"] == []
    walk_to(sim, server, b, Vec3(24.0, 30.0, 8.0))
    assert [p for p in alice.of_kind(SpawnEntityPacket) if p.name == "bob"]


def test_known_replicas_subset_of_view(sim, server):
    """Invariant: every replica the client holds sits in a viewed chunk."""
    alice, bob = Client(), Client()
    a = server.connect("alice", handler=alice, position=Vec3(8, 30, 8))
    b = server.connect("bob", handler=bob, position=Vec3(12, 30, 12))
    walk_to(sim, server, b, Vec3(100.0, 30.0, -60.0))
    walk_to(sim, server, a, Vec3(-60.0, 30.0, 40.0))
    session = server.sessions[a.client_id]
    for position in session.known_entities.values():
        assert position.to_chunk_pos() in session.view_chunks


def test_leave_clears_view_state(server):
    client = Client()
    session = server.connect("alice", handler=client)
    server.disconnect(session.client_id)
    assert session.view_chunks == set()
    assert session.known_entities == {}
