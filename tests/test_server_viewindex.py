"""ViewerIndex: inverse-map invariants and fan-out equivalence.

Three layers of proof that the O(viewers) indexed fan-out is safe:

1. *Invariant property*: after arbitrary interleavings of join / refresh
   / chunk-crossing / disconnect, the index is the exact inverse of
   ``session.view_chunks`` (and the knower map of
   ``session.known_entities``) — ``chunk in session.view_chunks`` iff
   ``session in index[chunk]``.
2. *Operation count*: broadcasting a chunk-anchored event never visits a
   session that does not view the event's chunk.
3. *Differential*: a seeded 2,000-tick workload produces byte-identical
   per-client packet streams on the indexed paths and with the original
   brute-force scans patched in over them (the ``scan_fanout`` fixture of
   :mod:`tests.conftest`), in both direct and dyconit modes.
"""

from __future__ import annotations

import random

import pytest

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.core.bounds import Bounds
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.geometry import BlockPos
from repro.world.world import World


def build_server(
    sim: Simulation,
    direct_mode: bool = True,
    policy=None,
    mob_count: int = 0,
) -> GameServer:
    server = GameServer(
        sim,
        world=World(seed=99),
        config=ServerConfig(
            seed=99,
            synchronous_delivery=True,
            mob_count=mob_count,
        ),
        policy=policy,
        direct_mode=direct_mode,
    )
    server.start()
    return server


# ----------------------------------------------------------------------
# 1. Inverse-map invariant under random interleavings
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", ["direct", "dyconit"])
def test_index_is_exact_inverse_under_random_interleavings(seed, mode):
    """chunk ∈ session.view_chunks ⇔ session ∈ index[chunk], and the
    knower map mirrors known_entities, after any op sequence."""
    sim = Simulation()
    server = build_server(
        sim,
        direct_mode=(mode == "direct"),
        policy=None if mode == "direct" else FixedBoundsPolicy(Bounds(25.0, 400.0)),
        mob_count=3,
    )
    rng = random.Random(seed)
    sessions = []
    next_name = 0

    def audit():
        server.viewers.audit(server.sessions.values())

    for step in range(120):
        op = rng.random()
        if op < 0.25 or not sessions:
            # Join at a random spot (possibly far from everyone).
            x = rng.uniform(-120.0, 120.0)
            z = rng.uniform(-120.0, 120.0)
            session = server.connect(
                f"p{next_name}", lambda delivered: None,
                position=server.world.surface_position(x, z),
            )
            next_name += 1
            sessions.append(session)
        elif op < 0.75:
            # Move a random player, often across a chunk border; the
            # engine runs on_entity_crossed + refresh off the move event.
            session = rng.choice(sessions)
            entity = server.world.get_entity(session.entity_id)
            dx = rng.uniform(-24.0, 24.0)
            dz = rng.uniform(-24.0, 24.0)
            target = server.world.surface_position(
                entity.position.x + dx, entity.position.z + dz
            )
            server.world.move_entity(session.entity_id, target)
        elif op < 0.9:
            # Advance the clock so ticks (mob steps, flushes) interleave.
            sim.run_until(sim.now + rng.choice([50.0, 150.0, 400.0]))
        else:
            session = sessions.pop(rng.randrange(len(sessions)))
            server.disconnect(session.client_id)
        audit()

    while sessions:
        server.disconnect(sessions.pop().client_id)
    audit()
    assert server.viewers.chunk_count == 0
    assert server.viewers.pair_count == 0


# ----------------------------------------------------------------------
# 2. Operation count: non-viewers are never visited
# ----------------------------------------------------------------------


def test_broadcast_never_visits_sessions_outside_the_event_chunk():
    sim = Simulation()
    server = build_server(sim, direct_mode=True)
    # Two clusters far enough apart (view distance 5 → 5*16=80 blocks)
    # that neither sees the other's chunks.
    near = [
        server.connect(f"near{i}", lambda d: None,
                       position=server.world.surface_position(8.0 + i, 8.0))
        for i in range(3)
    ]
    far = [
        server.connect(f"far{i}", lambda d: None,
                       position=server.world.surface_position(800.0 + i, 800.0))
        for i in range(3)
    ]

    visited: list[int] = []
    original_encode = server.codec.encode

    def counting_encode(session, segments):
        visited.append(session.client_id)
        return original_encode(session, segments)

    server.codec.encode = counting_encode

    event_chunk = BlockPos(9, 0, 9).to_chunk_pos()
    server.world.set_block(BlockPos(9, 60, 9), BlockType.STONE)
    assert visited, "the near cluster must receive the block change"
    far_ids = {session.client_id for session in far}
    assert not far_ids & set(visited), "a non-viewer session was visited"
    for client_id in visited:
        assert server.sessions[client_id].sees_chunk(event_chunk)

    # Chunk-less events (chat) legitimately visit everyone.
    visited.clear()
    server.world.chat(near[0].entity_id, "hello")
    assert set(visited) == {s.client_id for s in near + far} - {near[0].client_id}


def test_chunk_crossing_never_visits_unrelated_sessions():
    sim = Simulation()
    server = build_server(sim, direct_mode=True)
    watcher = server.connect(
        "watcher", lambda d: None, position=server.world.surface_position(8.0, 8.0)
    )
    bystander = server.connect(
        "bystander", lambda d: None,
        position=server.world.surface_position(800.0, 800.0),
    )
    mob = server.world.spawn_entity(
        EntityKind.COW, server.world.surface_position(10.0, 10.0)
    )

    calls: list[int] = []
    original = server.codec.encode_entity_snapshot

    def counting_snapshot(session, entity_id):
        calls.append(session.client_id)
        return original(session, entity_id)

    server.codec.encode_entity_snapshot = counting_snapshot
    # Walk the mob across several chunk borders near the watcher.
    for step in range(1, 5):
        server.world.move_entity(
            mob.entity_id, server.world.surface_position(10.0 + 16.0 * step, 10.0)
        )
    assert bystander.client_id not in calls
    assert bystander.entity_id not in [  # replica set never touched either
        entity_id for entity_id in bystander.known_entities
    ]
    assert watcher.client_id in calls or mob.entity_id in watcher.known_entities


# ----------------------------------------------------------------------
# 3. Differential: indexed ≡ brute-force scan, packet for packet
# ----------------------------------------------------------------------

#: 2,000 ticks at the 50 ms default interval.
DIFFERENTIAL_DURATION_MS = 2_000 * 50.0


def run_fanout_capture(direct_mode: bool):
    """Seeded wandering+building workload; returns per-client packets."""
    sim = Simulation()
    server = GameServer(
        sim,
        world=World(seed=31),
        config=ServerConfig(
            seed=31,
            synchronous_delivery=True,
            mob_count=3,
        ),
        # Loose bounds queue updates long enough for replicas to go stale
        # while entities cross chunks — the path where the knower map must
        # exactly reproduce the scan's destroy sweep.
        policy=None if direct_mode else FixedBoundsPolicy(Bounds(30.0, 600.0)),
        direct_mode=direct_mode,
    )
    server.start()
    spec = WorkloadSpec(
        bots=6,
        seed=31,
        movement="uniform",  # random-waypoint wandering: heavy chunk churn
        behavior=BehaviorMix(build=0.08, dig=0.04, chat=0.01),
        arrival_stagger_ms=60.0,
        measure_interval_ms=0.0,
    )
    workload = Workload(sim, server, spec)

    captures: dict[str, list] = {}
    original_connect = server.connect

    def tapping_connect(name, handler, **kwargs):
        log = captures.setdefault(name, [])

        def tapped(delivered):
            log.append(delivered.packet)
            handler(delivered)

        return original_connect(name, tapped, **kwargs)

    server.connect = tapping_connect
    workload.start()
    sim.run_until(DIFFERENTIAL_DURATION_MS)
    return captures, server


@pytest.mark.parametrize("direct_mode", [True, False])
def test_indexed_fanout_is_packet_identical_to_scan(scan_fanout, direct_mode):
    indexed, indexed_server = run_fanout_capture(direct_mode)
    with scan_fanout():
        scanned, scanned_server = run_fanout_capture(direct_mode)

    assert indexed_server.tick_count >= 2_000
    assert set(indexed) == set(scanned)
    for name in indexed:
        assert indexed[name] == scanned[name], f"packet stream diverged for {name}"
    assert (
        indexed_server.transport.total_bytes() == scanned_server.transport.total_bytes()
    )
    assert (
        indexed_server.transport.packets_by_kind()
        == scanned_server.transport.packets_by_kind()
    )
    assert indexed_server.messages_sent == scanned_server.messages_sent
