"""Behavioural tests for interest management."""

import pytest

from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT
from repro.net.protocol import (
    ChunkDataPacket,
    ChunkUnloadPacket,
    DestroyEntitiesPacket,
    PlayerActionPacket,
    SpawnEntityPacket,
)
from repro.policies import (
    AdaptiveBoundsPolicy,
    DistanceBasedPolicy,
    ElasticPartitioningPolicy,
    InterestCutoffPolicy,
)
from repro.policies.zero import ZeroBoundsPolicy
from repro.world.geometry import ChunkPos, Vec3
from repro.world.world import World

from tests.conftest import oracle_bounds


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


# ----------------------------------------------------------------------
# One bounds formula (S35): a view change subscribes with the bounds a
# crossing re-derives
# ----------------------------------------------------------------------


def moved_factor() -> AdaptiveBoundsPolicy:
    policy = AdaptiveBoundsPolicy()
    policy.factor = 2.56  # as after two loosening steps
    return policy


SPATIAL_POLICIES = {
    "distance": DistanceBasedPolicy,
    "adaptive": AdaptiveBoundsPolicy,
    "adaptive-moved": moved_factor,
    "aoi": InterestCutoffPolicy,
    "elastic-distance": lambda: ElasticPartitioningPolicy(inner=DistanceBasedPolicy()),
}


def bounds_of(system, subscriber_id: int) -> dict:
    return {
        dyconit_id: system.get(dyconit_id).get_state(subscriber_id).bounds
        for dyconit_id in system.subscription_ids_of(subscriber_id)
    }


@pytest.mark.parametrize("state_store", ["memory", "sqlite"])
@pytest.mark.parametrize("policy", SPATIAL_POLICIES.values(), ids=SPATIAL_POLICIES)
def test_join_subscribes_with_the_bounds_a_crossing_installs(
    sim, server_factory, policy, state_store
):
    """Re-deriving a subscriber's bounds at the same position (what a chunk
    crossing does) changes no bound, bit for bit, and flushes nothing —
    right after the join, and again once mobs have queues pending."""
    server = server_factory(
        policy=policy(), synchronous_delivery=True, state_store=state_store, mob_count=30
    )
    system = server.dyconits
    session = server.connect("alice", handler=Client(), position=Vec3(21.0, 30.0, -7.5))
    subscriber = system.subscriber(session.client_id)
    joined = bounds_of(system, session.client_id)
    assert len(joined) == (2 * session.view_distance + 1) ** 2 + 1
    assert len(set(joined.values())) > 1  # the bounds do depend on the place
    assert joined == {
        dyconit_id: oracle_bounds(system.policy, system, dyconit_id, subscriber.position)
        for dyconit_id in joined
    }
    for ticks in (0, 6):
        sim.run_until(sim.now + ticks * 50.0)
        before = bounds_of(system, session.client_id)
        pending = [
            dyconit_id
            for dyconit_id in before
            if system.get(dyconit_id).get_state(session.client_id).has_pending
        ]
        assert bool(pending) == bool(ticks)
        flushes = system.stats.flushes
        with system._flush_scope():  # as notify_subscriber_moved runs it
            system.retune_subscriber(subscriber, system.policy.bounds_columns)
        assert bounds_of(system, session.client_id) == before
        assert system.stats.flushes == flushes
    server.close()


@pytest.mark.parametrize("state_store", ["memory", "sqlite"])
@pytest.mark.parametrize("policy", SPATIAL_POLICIES.values(), ids=SPATIAL_POLICIES)
def test_view_change_bounds_equal_one_subscribe_at_a_time(
    sim, server_factory, policy, state_store, monkeypatch
):
    """The bounds a join and a diagonal crossing subscribe with — one
    policy call per view change — are, id for id, what ``subscribe``
    without bounds derives for that id alone."""
    subscribed = []
    subscribe = DyconitSystem.subscribe

    def spy(system, dyconit_id, subscriber, bounds=None):
        (alone,) = system.policy_bounds([system.resolve(dyconit_id)], subscriber)
        subscribed.append((dyconit_id, bounds, alone))
        return subscribe(system, dyconit_id, subscriber, bounds=bounds)

    monkeypatch.setattr(DyconitSystem, "subscribe", spy)
    server = server_factory(policy=policy(), synchronous_delivery=True, state_store=state_store)
    session = server.connect("alice", handler=Client(), position=Vec3(8, 30, 8))
    row = 2 * session.view_distance + 1
    assert len(subscribed) == row * row + 1
    walk_to(sim, server, session, Vec3(24.0, 30.0, 24.0))  # diagonally into chunk (1, 1)
    assert len(subscribed) == row * row + 1 + 2 * row - 1
    assert all(bounds is not None for __, bounds, __ in subscribed)
    assert [bounds for __, bounds, __ in subscribed] == [alone for __, __, alone in subscribed]
    server.close()
