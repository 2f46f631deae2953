"""One encode per delivery, with the move memo, against the per-segment
reference.

The engine hands each delivery — all of a subscriber's segments from one
flush scope — to one ``SessionCodec.encode`` call, and the codec builds a
move packet once per distinct ``(update, last_sent)`` pair until the
tick's frames leave. The reference is :func:`tests.conftest.
reference_encode`, patched in by the ``reference_delivery`` fixture: every
segment encoded on its own and every move packet built afresh per session,
queue delays recorded one ``Histogram.record`` at a time. Per client the
two runs must agree bit for bit on what was sent, when it left and when it
arrived, and on everything the middleware, the links and the delay
histogram accumulated from it.

CI runs this module under two ``PYTHONHASHSEED`` values: the memo is keyed
by ``id()``, and nothing observable may depend on it.
"""

import pytest

from repro.bots.workload import BUILDER_MIX, Workload, WorkloadSpec
from repro.cluster import ParallelShardRunner, ShardedCluster
from repro.cluster.shard import ShardServer
from repro.core.partition import ChunkPartitioner
from repro.net.protocol import (
    BlockChangePacket,
    EntityPositionPacket,
    EntityTeleportPacket,
    MultiBlockChangePacket,
)
from repro.policies import AdaptiveBoundsPolicy
from repro.server.codec import SessionCodec, _move_packet
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.session import PlayerSession
from repro.sim.simulator import Simulation
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.events import BlockChangeEvent, EntityMoveEvent
from repro.world.geometry import BlockPos, ChunkPos, Vec3, chunks_in_radius

SEED = 1
BOTS = 16
TICKS = 2_000
TICK_MS = 50.0
CLUSTER_BOTS = 8
CLUSTER_MS = 8_000.0


def adaptive_policy():
    """``bench/workloads.py``'s adaptive servo (module level: it crosses
    into shard workers)."""
    return AdaptiveBoundsPolicy(tighten_factor=0.95)


def recording(server) -> tuple[dict, list]:
    """Tap every client's deliveries as ``(repr(packet), sent_at,
    delivered_at)``, keyed by client name; also keep every relative-move
    packet object delivered, to count how many distinct ones there were."""
    logs: dict[str, list] = {}
    moves: list = []
    connect = server.connect

    def recording_connect(name, handler, **kwargs):
        log = logs.setdefault(name, [])

        def tee(delivered):
            packet = delivered.packet
            log.append((repr(packet), delivered.sent_at, delivered.delivered_at))
            if type(packet) is EntityPositionPacket:
                moves.append(packet)
            handler(delivered)

        return connect(name, tee, **kwargs)

    server.connect = recording_connect
    return logs, moves


def sharing(moves: list) -> float:
    """Relative-move packets delivered per distinct packet object."""
    return len(moves) / len({id(packet) for packet in moves})


def spec(bots: int, movement: str, spawn_radius: float = 48.0) -> WorkloadSpec:
    return WorkloadSpec(
        bots=bots,
        seed=SEED,
        movement=movement,
        behavior=BUILDER_MIX,
        arrival_stagger_ms=10.0,
        spawn_radius=spawn_radius,
        measure_interval_ms=0.0,
    )


def histogram_state(metrics) -> tuple:
    h = metrics.histogram("update_queue_delay_ms", min_value=0.1)
    return (h.count, h.total, h.max_value, h.min_seen, h._zero_count, dict(h._buckets))


def link_stats(transport) -> tuple:
    return (
        {client_id: link.stats for client_id, link in transport._links.items()},
        list(transport._closed_stats),
    )


def run_single(state_store: str) -> dict:
    sim = Simulation()
    server = GameServer(
        sim,
        config=ServerConfig(synchronous_delivery=True, state_store=state_store, seed=SEED),
        policy=adaptive_policy(),
    )
    logs, moves = recording(server)
    server.start()
    Workload(sim, server, spec(BOTS, "hotspot")).start()
    sim.run_until(TICKS * TICK_MS)
    server.audit_now()
    observed = {
        "logs": logs,
        "stats": server.dyconits.stats,
        "delays": histogram_state(server.metrics),
        "links": link_stats(server.transport),
        "bytes": server.transport.total_bytes(),
        "ticks": server.tick_count,
    }
    server.close()
    return observed, sharing(moves)


def run_cluster(parallel: bool) -> dict:
    sim = Simulation()
    config = ServerConfig(synchronous_delivery=True, seed=SEED, mob_count=3)
    cls = ParallelShardRunner if parallel else ShardedCluster
    cluster = cls(
        sim,
        shards=2,
        config=config,
        policy_factory=adaptive_policy,
        partitioner_factory=ChunkPartitioner,
    )
    logs, moves = recording(cluster)
    cluster.start()
    Workload(sim, cluster, spec(CLUSTER_BOTS, "gathering", spawn_radius=10.0)).start()
    sim.run_until(CLUSTER_MS)
    if parallel:
        cluster.finalize()  # pulls the workers' state and stops them
    observed = {
        "logs": logs,
        "stats": [shard.dyconits.stats for shard in cluster.shards],
        "delays": [histogram_state(shard.metrics) for shard in cluster.shards],
        "bytes": [shard.transport.total_bytes() for shard in cluster.shards],
        "by_kind": [shard.transport.bytes_by_kind() for shard in cluster.shards],
        "handoffs": cluster.handoffs,
        "bus": (cluster.bus.total_messages, cluster.bus.total_bytes),
    }
    if not parallel:
        observed["links"] = [link_stats(shard.transport) for shard in cluster.shards]
        cluster.close()
    return observed, sharing(moves)


def assert_same(product: dict, reference: dict) -> None:
    assert set(product["logs"]) == set(reference["logs"])
    for name, log in product["logs"].items():
        assert log == reference["logs"][name], f"client {name} diverged"
    for field in product:
        assert product[field] == reference[field], field


@pytest.mark.parametrize("state_store", ["memory", "sqlite"])
def test_adaptive_hotspot_2k_ticks_equals_reference(state_store, reference_delivery):
    product, shared = run_single(state_store)
    with reference_delivery():
        reference, reference_shared = run_single(state_store)
    assert product["ticks"] >= TICKS
    assert len(product["logs"]) == BOTS
    assert sum(len(log) for log in product["logs"].values()) > 100_000
    assert product["stats"].flushes > 10_000
    assert_same(product, reference)
    assert reference_shared == 1.0
    if state_store == "memory":
        assert shared > 2.0  # the memo did share packets
    else:
        # The row store decodes each distinct blob once per batched drain:
        # subscribers drained together share the update object, so the
        # memo shares their packets too.
        assert shared > 1.0


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_two_shard_cluster_equals_reference(parallel, reference_delivery):
    product, shared = run_cluster(parallel)
    with reference_delivery():
        reference, reference_shared = run_cluster(parallel)
    assert product["handoffs"] > 0
    assert product["bus"][0] > 0
    assert all(stats.flushes > 0 for stats in product["stats"])
    assert_same(product, reference)
    # Shared in the worker, and still shared after the pipe: a packet
    # object pickles once per reply.
    assert reference_shared == 1.0
    assert shared > 1.5


def test_one_encode_per_delivery(monkeypatch):
    """Every delivery the engine handler receives is one ``encode`` call
    over all its segments, and on the crowd many carry several."""
    segments: list[int] = []
    encode = SessionCodec.encode

    def counting_encode(codec, session, delivered):
        segments.append(len(delivered))
        return encode(codec, session, delivered)

    deliveries: list[int] = []
    make_handler = GameServer._make_delivery_handler

    def counting_handler(server, session):
        deliver = make_handler(server, session)

        def counted(delivered):
            deliveries.append(len(delivered))
            deliver(delivered)

        return counted

    monkeypatch.setattr(SessionCodec, "encode", counting_encode)
    monkeypatch.setattr(GameServer, "_make_delivery_handler", counting_handler)
    sim = Simulation()
    server = GameServer(
        sim, config=ServerConfig(synchronous_delivery=True, seed=SEED), policy=adaptive_policy()
    )
    server.start()
    Workload(sim, server, spec(BOTS, "hotspot")).start()
    sim.run_until(200 * TICK_MS)
    assert segments == deliveries
    assert sum(segments) == server.dyconits.stats.flushes
    assert max(segments) > 1
    server.close()


# ----------------------------------------------------------------------
# The memo, case by case
# ----------------------------------------------------------------------

ENTITY = 7
START = Vec3(4.0, 30.0, 4.0)


@pytest.fixture
def codec(world):
    world.spawn_entity(EntityKind.COW, START, entity_id=ENTITY)
    return SessionCodec(world)


def viewer(client_id: int, last_sent: Vec3 | None = None) -> PlayerSession:
    session = PlayerSession(
        client_id=client_id, entity_id=100 + client_id, name=f"v{client_id}", view_distance=5
    )
    session.view_chunks = set(chunks_in_radius(ChunkPos(0, 0), 5))
    if last_sent is not None:
        session.known_entities[ENTITY] = last_sent
    return session


def move(new: Vec3, time: float = 1.0, old: Vec3 = START) -> EntityMoveEvent:
    return EntityMoveEvent(time, ENTITY, old, new)


def one_segment(*updates) -> list:
    return [(("chunk", 0, 0), list(updates))]


def test_sessions_sharing_a_last_sent_position_share_the_packet(codec):
    shared = Vec3(4.0, 30.0, 4.0)
    a, b = viewer(1, shared), viewer(2, shared)
    update = move(Vec3(4.5, 30.0, 4.25))
    [first] = codec.encode(a, one_segment(update))
    [second] = codec.encode(b, one_segment(update))
    assert first is second
    assert first == EntityPositionPacket(entity_id=ENTITY, delta=Vec3(0.5, 0.0, 0.25))
    # Per-client bookkeeping stays per client.
    assert a.known_entities[ENTITY] is update.new_position
    assert b.known_entities[ENTITY] is update.new_position
    assert a.entity_update_times == b.entity_update_times == {ENTITY: 1.0}


def test_different_last_sent_positions_get_different_packets(codec):
    update = move(Vec3(4.5, 30.0, 4.25))
    near = viewer(1, Vec3(4.0, 30.0, 4.0))
    equal_not_same = viewer(2, Vec3(4.0, 30.0, 4.0))
    other = viewer(3, Vec3(3.25, 30.0, 4.5))
    far = viewer(4, Vec3(40.0, 30.0, 4.0))
    [p1] = codec.encode(near, one_segment(update))
    [p2] = codec.encode(equal_not_same, one_segment(update))
    [p3] = codec.encode(other, one_segment(update))
    [p4] = codec.encode(far, one_segment(update))
    # Keyed by identity: an equal position is a pair of its own, whose
    # packet is equal.
    assert p2 == p1 and p2 is not p1
    assert p3 == EntityPositionPacket(entity_id=ENTITY, delta=Vec3(1.25, 0.0, -0.25))
    assert isinstance(p4, EntityTeleportPacket)
    assert len(codec._moves[id(update)][2]) == 4


def test_block_changes_in_one_chunk_stay_one_packet_per_segment(codec):
    session = viewer(1)
    first = BlockChangeEvent(0.0, BlockPos(1, 30, 1), BlockType.AIR, BlockType.STONE)
    second = BlockChangeEvent(1.0, BlockPos(2, 30, 1), BlockType.AIR, BlockType.PLANKS)
    third = BlockChangeEvent(1.0, BlockPos(3, 30, 1), BlockType.AIR, BlockType.PLANKS)
    packets = codec.encode(
        session, [(("chunk", 0, 0), [first]), (("chunk", 0, 0), [second, third])]
    )
    assert packets == [
        BlockChangePacket(pos=first.pos, block=BlockType.STONE),
        MultiBlockChangePacket(
            chunk=ChunkPos(0, 0),
            changes=tuple(
                sorted({second.pos: second.new_block, third.pos: third.new_block}.items(), key=str)
            ),
        ),
    ]


def test_the_memo_is_empty_after_every_tick(monkeypatch):
    sizes: list[int] = []
    clear = SessionCodec.clear_moves

    def measuring_clear(codec):
        sizes.append(len(codec._moves))
        clear(codec)

    monkeypatch.setattr(SessionCodec, "clear_moves", measuring_clear)
    sim = Simulation()
    server = GameServer(
        sim, config=ServerConfig(synchronous_delivery=True, seed=SEED), policy=adaptive_policy()
    )
    server.start(schedule_ticks=False)
    Workload(sim, server, spec(BOTS, "hotspot")).start()
    for tick in range(1, 301):
        sim.run_until(tick * TICK_MS)
        server.tick_once()
        assert server.codec._moves == {}, f"tick {tick}"
    assert max(sizes) > 10  # the memo was in use
    server.close()


def test_the_memo_is_empty_after_every_bus_message(monkeypatch):
    """Bus rounds run between ticks; ghost moves applied there can flush
    and encode, and the shard clears the memo after each message."""
    encoded = [0]
    encoding_messages = []
    encode_move = SessionCodec._encode_move
    on_bus_message = ShardServer._on_bus_message

    def counting_encode_move(codec, session, update):
        encoded[0] += 1
        return encode_move(codec, session, update)

    def checked_on_bus_message(shard, src, message):
        before = encoded[0]
        on_bus_message(shard, src, message)
        assert shard.codec._moves == {}
        if encoded[0] > before:
            encoding_messages.append(type(message).__name__)

    monkeypatch.setattr(SessionCodec, "_encode_move", counting_encode_move)
    monkeypatch.setattr(ShardServer, "_on_bus_message", checked_on_bus_message)
    run_cluster(parallel=False)
    assert encoding_messages  # the clear is not vacuous


def test_a_dropped_update_is_matched_only_by_identity(codec):
    """Mid-round, the memo may hold the only reference to an update. Were
    it keyed by ``id()`` without holding the object, a later update
    allocated at the freed address would be handed the earlier one's
    packet. Nothing is cleared between the encodes here."""
    shared = Vec3(4.0, 30.0, 4.0)
    ids, packets, expected = [], [], []
    for step in range(200):
        session = viewer(step, shared)
        update = move(Vec3(4.0 + 0.01 * step, 30.0, 4.0), time=float(step))
        ids.append(id(update))
        expected.append(_move_packet(update, shared))
        [packet] = codec.encode(session, one_segment(update))
        packets.append(packet)
        del update, session
    assert packets == expected
    assert len(set(ids)) == len(ids)  # held, so never freed and reused
    assert len(codec._moves) == 200


def test_the_allocator_does_reuse_a_dropped_updates_address():
    """Non-vacuity for the test above: without the memo holding it, a
    dropped update's address is handed to the next one."""
    addresses = []
    for step in range(50):
        update = move(Vec3(4.0 + 0.01 * step, 30.0, 4.0), time=float(step))
        addresses.append(id(update))
        del update
    assert len(set(addresses)) < len(addresses)
