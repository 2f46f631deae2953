"""Unit/behavioural tests for the game server engine."""

import pytest

from repro.net.protocol import (
    ChunkDataPacket,
    EntityPositionPacket,
    JoinGamePacket,
    KeepAlivePacket,
    PlayerActionPacket,
    SpawnEntityPacket,
)
from repro.policies.zero import ZeroBoundsPolicy
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.geometry import BlockPos, Vec3


class Client:
    """Minimal packet sink used as the connect handler."""

    def __init__(self):
        self.packets = []

    def __call__(self, delivered):
        self.packets.append(delivered.packet)

    def of_kind(self, kind):
        return [p for p in self.packets if isinstance(p, kind)]


def test_server_requires_policy_unless_direct(sim, server_factory):
    with pytest.raises(ValueError):
        server_factory(policy=None, direct_mode=False)


def test_connect_sends_join_and_initial_view(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    client = Client()
    session = server.connect("alice", handler=client)
    assert server.player_count == 1
    assert len(client.of_kind(JoinGamePacket)) == 1
    view_size = (2 * session.view_distance + 1) ** 2
    assert len(client.of_kind(ChunkDataPacket)) == view_size
    assert len(session.view_chunks) == view_size


def test_second_player_sees_first(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    alice, bob = Client(), Client()
    server.connect("alice", handler=alice, position=Vec3(8, 30, 8))
    server.connect("bob", handler=bob, position=Vec3(10, 30, 10))
    # Bob received a snapshot of alice during view sync.
    names = [p.name for p in bob.of_kind(SpawnEntityPacket)]
    assert "alice" in names
    # Alice saw bob's spawn broadcast through the middleware.
    names = [p.name for p in alice.of_kind(SpawnEntityPacket)]
    assert "bob" in names


def test_player_does_not_see_own_spawn(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    alice = Client()
    server.connect("alice", handler=alice)
    assert [p.name for p in alice.of_kind(SpawnEntityPacket)] == []


def test_move_action_applies_at_next_tick(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    client = Client()
    session = server.connect("alice", handler=client, position=Vec3(8, 30, 8))
    target = Vec3(9.0, 30.0, 8.0)
    server.submit_action(session.client_id, PlayerActionPacket("move", position=target))
    entity = server.world.get_entity(session.entity_id)
    assert entity.position != target
    sim.run_until(sim.now + 100.0)
    assert entity.position == target


def test_place_and_dig_actions(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    client = Client()
    session = server.connect("alice", handler=client, position=Vec3(8, 30, 8))
    pos = BlockPos(9, 40, 9)
    server.submit_action(
        session.client_id,
        PlayerActionPacket("place", block_pos=pos, block=BlockType.BRICK),
    )
    sim.run_until(sim.now + 100.0)
    assert server.world.get_block(pos) == BlockType.BRICK
    server.submit_action(session.client_id, PlayerActionPacket("dig", block_pos=pos))
    sim.run_until(sim.now + 100.0)
    assert server.world.get_block(pos) == BlockType.AIR


def test_block_change_not_echoed_to_actor(sim, server_factory):
    from repro.net.protocol import BlockChangePacket

    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    alice, bob = Client(), Client()
    a = server.connect("alice", handler=alice, position=Vec3(8, 30, 8))
    server.connect("bob", handler=bob, position=Vec3(10, 30, 10))
    server.submit_action(
        a.client_id,
        PlayerActionPacket("place", block_pos=BlockPos(9, 40, 9), block=BlockType.BRICK),
    )
    sim.run_until(sim.now + 100.0)
    assert alice.of_kind(BlockChangePacket) == []
    assert len(bob.of_kind(BlockChangePacket)) == 1


def test_chat_reaches_everyone_else(sim, server_factory):
    from repro.net.protocol import ChatMessagePacket

    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    alice, bob = Client(), Client()
    a = server.connect("alice", handler=alice)
    server.connect("bob", handler=bob, position=Vec3(12, 30, 12))
    server.submit_action(
        a.client_id, PlayerActionPacket("chat", extra={"text": "hello"})
    )
    sim.run_until(sim.now + 400.0)
    assert [p.text for p in bob.of_kind(ChatMessagePacket)] == ["hello"]
    assert alice.of_kind(ChatMessagePacket) == []


def test_disconnect_despawns_and_stops_traffic(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    alice, bob = Client(), Client()
    a = server.connect("alice", handler=alice)
    server.connect("bob", handler=bob, position=Vec3(12, 30, 12))
    server.disconnect(a.client_id)
    assert server.player_count == 1
    assert server.world.get_entity(a.entity_id) is None
    from repro.net.protocol import DestroyEntitiesPacket

    destroys = bob.of_kind(DestroyEntitiesPacket)
    assert any(a.entity_id in p.entity_ids for p in destroys)


def test_disconnect_is_idempotent(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy())
    a = server.connect("alice", handler=Client())
    server.disconnect(a.client_id)
    server.disconnect(a.client_id)  # second call is a no-op
    assert server.player_count == 0


def test_keepalives_flow(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    client = Client()
    server.connect("alice", handler=client)
    sim.run_until(sim.now + 11_000.0)
    assert len(client.of_kind(KeepAlivePacket)) >= 2


def test_tick_metrics_recorded(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy())
    sim.run_until(1_000.0)
    series = server.metrics.series("tick_duration_ms")
    assert len(series) >= 19
    assert all(duration > 0 for duration in series.values)


def test_overload_stretches_tick_interval(sim):
    """When the priced tick exceeds the budget, the effective tick rate
    drops below 20 Hz."""
    from repro.server.config import ServerConfig
    from repro.server.costmodel import CostCoefficients
    from repro.server.engine import GameServer
    from repro.world.world import World

    config = ServerConfig(
        seed=1, cost=CostCoefficients(base_ms=80.0), synchronous_delivery=True
    )
    server = GameServer(sim, world=World(seed=1), config=config, policy=ZeroBoundsPolicy())
    server.start()
    sim.run_until(2_000.0)
    assert server.tick_count <= 25  # 80 ms per tick -> at most 12.5 Hz


def test_mobs_spawn_and_wander(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), mob_count=5, synchronous_delivery=True)
    assert server.world.entity_count == 5
    positions_before = {
        e.entity_id: e.position for e in server.world.entities()
    }
    sim.run_until(2_000.0)
    moved = [
        entity_id
        for entity_id, before in positions_before.items()
        if server.world.get_entity(entity_id).position != before
    ]
    assert moved


def test_start_twice_rejected(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy())
    with pytest.raises(RuntimeError):
        server.start()


def test_load_signals_shape(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy())
    sim.run_until(500.0)
    signals = server.load_signals()
    assert signals.tick_budget_ms == 50.0
    assert signals.player_count == 0
    assert signals.smoothed_tick_duration_ms > 0.0


def test_direct_broadcast_shares_one_move_packet_but_not_across_histories(
    sim, server_factory
):
    """Vanilla fan-out encodes a move once per event: viewers whose
    replicas stand in the same place receive the very same packet object;
    a viewer with a different history receives its own, and each replica
    ends on the authoritative position."""
    server = server_factory(direct_mode=True, synchronous_delivery=True, mob_count=0)
    world = server.world
    early, other, late = Client(), Client(), Client()
    server.connect("early", handler=early, position=Vec3(8, 30, 8))
    server.connect("other", handler=other, position=Vec3(9, 30, 9))
    mob = world.spawn_entity(EntityKind.COW, Vec3(12.0, 30.0, 12.0))
    world.move_entity(mob.entity_id, Vec3(12.5, 30.0, 12.0))
    late_session = server.connect("late", handler=late, position=Vec3(10, 30, 10))
    # As if a teleport had been the last thing "late" was sent for the mob.
    late_session.known_entities[mob.entity_id] = Vec3(11.0, 30.0, 12.0)

    world.move_entity(mob.entity_id, Vec3(13.0, 30.0, 12.5))
    moves = [client.of_kind(EntityPositionPacket)[-1] for client in (early, other, late)]
    assert moves[0] is moves[1]
    assert moves[0].delta == Vec3(0.5, 0.0, 0.5)
    assert moves[2].delta == Vec3(2.0, 0.0, 0.5)
    for session in server.sessions.values():
        assert session.known_entities[mob.entity_id] == Vec3(13.0, 30.0, 12.5)
    server.audit_now()
