"""Unit tests for the deterministic inter-shard bus.

Delivery is the cluster's job; here :func:`pump` drains
:meth:`InterShardBus.rounds` into per-destination test handlers, one
message at a time in the round's order — the structure a cluster's
per-round delivery sees.
"""

import pytest

from repro.cluster.bus import (
    MAX_PUMP_ROUNDS,
    BusPumpDivergenceError,
    InterShardBus,
    by_destination,
)
from repro.cluster.messages import (
    EntityTransfer,
    GhostMove,
    PeerSnapshot,
    PeerSubscribe,
    PeerUnsubscribe,
    PeerUpdates,
    SessionHandoff,
)
from repro.core.bounds import Bounds
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntitySpawnEvent,
)
from repro.world.geometry import BlockPos, ChunkPos, Vec3


def attached(handlers):
    """A bus with one test handler per shard, taken by :func:`pump`."""
    bus = InterShardBus()
    for shard_id in handlers:
        bus.attach(shard_id)
    bus.handlers = handlers
    return bus


def pump(bus) -> int:
    """Drain the bus round by round into its test handlers; returns the
    messages delivered."""
    delivered = 0
    for round_batches in bus.rounds():
        for edge, messages in round_batches:
            for message in messages:
                bus.handlers[edge[1]](edge[0], message)
                delivered += 1
    return delivered


def make_bus(shard_ids=(0, 1)):
    logs = {shard_id: [] for shard_id in shard_ids}
    bus = attached(
        {
            shard_id: lambda src, msg, log=logs[shard_id]: log.append((src, msg))
            for shard_id in shard_ids
        }
    )
    return bus, logs


def tagged(tag="hi"):
    """A PeerUpdates message carrying a recognizable chat record."""
    return PeerUpdates(records=(ChatEvent(time=0.0, sender_id=0, text=tag),))


def tag_of(message):
    return message.records[0].text


def test_post_is_deferred_until_pump():
    bus, logs = make_bus()
    bus.post(0, 1, tagged())
    assert logs[1] == []
    assert bus.pending_messages == 1
    assert pump(bus) == 1
    assert len(logs[1]) == 1
    assert bus.pending_messages == 0


def test_snapshot_is_not_an_alias_of_the_live_queue():
    # Regression: the pump used to snapshot each queue by reference, then
    # truncate the "live" queue before iterating the snapshot — which was
    # the same list, so every message was silently discarded. Handoffs
    # never completed and clients stayed in transit forever.
    bus, logs = make_bus()
    bus.post(0, 1, tagged("one"))
    bus.post(0, 1, tagged("two"))
    delivered = pump(bus)
    assert delivered == 2
    assert [tag_of(msg) for __, msg in logs[1]] == ["one", "two"]


def test_edges_drain_in_sorted_order():
    order = []
    bus = attached(
        {
            shard_id: lambda src, msg, me=shard_id: order.append((src, me))
            for shard_id in (0, 1, 2)
        }
    )
    # Post in scrambled order; delivery order must follow sorted edges.
    bus.post(2, 0, tagged())
    bus.post(0, 1, tagged())
    bus.post(1, 2, tagged())
    bus.post(0, 2, tagged())
    pump(bus)
    assert order == [(0, 1), (0, 2), (1, 2), (2, 0)]


def test_fifo_within_an_edge():
    bus, logs = make_bus()
    for index in range(5):
        bus.post(0, 1, tagged(str(index)))
    pump(bus)
    assert [tag_of(msg) for __, msg in logs[1]] == ["0", "1", "2", "3", "4"]


def test_messages_posted_mid_pump_are_delivered_next_round():
    seen = []

    def replying_handler(src, msg):
        seen.append(("shard1", tag_of(msg)))
        if tag_of(msg) == "ping":
            bus.post(1, 0, tagged("pong"))

    bus = attached(
        {0: lambda src, msg: seen.append(("shard0", tag_of(msg))), 1: replying_handler}
    )
    bus.post(0, 1, tagged("ping"))
    delivered = pump(bus)
    assert delivered == 2
    assert seen == [("shard1", "ping"), ("shard0", "pong")]
    assert bus.pending_messages == 0


def test_non_converging_cascade_raises_instead_of_hanging():
    bus = attached(
        {
            0: lambda src, msg: bus.post(0, 1, tagged()),
            1: lambda src, msg: bus.post(1, 0, tagged()),
        }
    )
    bus.post(0, 1, tagged())
    with pytest.raises(RuntimeError, match=f"{MAX_PUMP_ROUNDS} rounds"):
        pump(bus)


def test_divergence_error_carries_per_edge_diagnostics():
    """Regression: a non-converging pump used to raise a bare
    RuntimeError with only the round count — no way to tell which edges
    were cycling or what was stuck on them."""
    # Two independent ping-pong cycles (0<->1 and 2<->3); every handler
    # reposts to its partner, so the pump never drains.
    bus = attached(
        {
            me: lambda src, msg, me=me, partner=partner: bus.post(
                me, partner, tagged("again")
            )
            for me, partner in ((0, 1), (1, 0), (2, 3), (3, 2))
        }
    )
    bus.post(0, 1, tagged("seed-a"))
    bus.post(2, 3, tagged("seed-b"))
    with pytest.raises(BusPumpDivergenceError) as excinfo:
        pump(bus)
    error = excinfo.value
    assert error.rounds == MAX_PUMP_ROUNDS
    # One stuck edge per cycle shows up, with depth + seq window +
    # message kinds per edge (the direction depends on round parity).
    assert len(error.edges) == 2
    assert all(edge in {(0, 1), (1, 0)} or edge in {(2, 3), (3, 2)}
               for edge in error.edges)
    for info in error.edges.values():
        assert info["depth"] >= 1
        assert info["last_seq"] >= info["first_seq"]
        assert info["kinds"] == {"PeerUpdates": info["depth"]}
    text = str(error)
    for (src, dst), info in error.edges.items():
        assert f"edge {src}->{dst}: depth={info['depth']}" in text
    assert "PeerUpdates" in text
    # The gauge source reflects the exhausted cap, not a stale value.
    assert bus.last_pump_rounds == MAX_PUMP_ROUNDS


def test_last_pump_rounds_tracks_cascade_depth():
    bus, __ = make_bus()
    assert bus.last_pump_rounds == 0
    bus.post(0, 1, tagged())
    pump(bus)
    assert bus.last_pump_rounds == 1

    # A ping->pong cascade takes two rounds; an empty pump takes zero.
    replies = iter([True, False])

    def reply_once(src, msg):
        if next(replies, False):
            cascade.post(1, 0, tagged("pong"))

    cascade = attached({0: lambda src, msg: None, 1: reply_once})
    cascade.post(0, 1, tagged("ping"))
    pump(cascade)
    assert cascade.last_pump_rounds == 2
    pump(cascade)
    assert cascade.last_pump_rounds == 0


def test_take_round_matches_pump_round_structure():
    """Both cluster runtimes drain via take_round(); a round is every
    non-empty edge in sorted order, and posts made while it is out wait
    for the next one."""
    bus, __ = make_bus((0, 1, 2))
    bus.post(2, 0, tagged("late-edge"))
    bus.post(0, 1, tagged("a"))
    bus.post(0, 1, tagged("b"))
    first = bus.take_round()
    assert [edge for edge, __ in first] == [(0, 1), (2, 0)]
    assert [tag_of(m) for m in dict(first)[(0, 1)]] == ["a", "b"]
    # Posts landing while a round is out wait for the next round.
    bus.post(1, 2, tagged("next"))
    second = bus.take_round()
    assert [edge for edge, __ in second] == [(1, 2)]
    assert bus.take_round() == []


def test_by_destination_groups_a_round_per_destination():
    bus, __ = make_bus((0, 1, 2))
    bus.post(2, 0, tagged("c"))
    bus.post(0, 1, tagged("a"))
    bus.post(0, 2, tagged("b"))
    bus.post(1, 0, tagged("d"))
    parts = by_destination(bus.take_round())
    assert [dst for dst, __ in parts] == [0, 1, 2]
    assert [
        (src, [tag_of(m) for m in messages]) for src, messages in dict(parts)[0]
    ] == [(1, ["d"]), (2, ["c"])]


def test_self_post_rejected():
    bus, __ = make_bus()
    with pytest.raises(ValueError, match="posting to itself"):
        bus.post(0, 0, tagged())


def test_post_to_unattached_shard_rejected():
    bus, __ = make_bus()
    with pytest.raises(ValueError, match="no shard 7"):
        bus.post(0, 7, tagged())


def test_double_attach_rejected():
    bus, __ = make_bus()
    with pytest.raises(ValueError, match="already attached"):
        bus.attach(1)


def test_byte_and_kind_accounting():
    bus, __ = make_bus()
    messages = [
        tagged("hello"),
        PeerUnsubscribe(chunk=ChunkPos(1, 2)),
        SessionHandoff(
            client_id=3, entity_id=9, position=Vec3(1.0, 2.0, 3.0), yaw=0.0, pitch=0.0
        ),
        tagged("again"),
    ]
    for message in messages:
        bus.post(0, 1, message)
    assert bus.total_messages == 4
    assert bus.total_bytes == sum(m.wire_size() for m in messages)
    assert bus.bytes_by_edge == {(0, 1): bus.total_bytes}
    assert bus.messages_by_kind == {
        "PeerUpdates": 2, "PeerUnsubscribe": 1, "SessionHandoff": 1,
    }
    # Accounting is cumulative: pumping does not reset the counters.
    pump(bus)
    assert bus.total_messages == 4


def spawn(name="Alice"):
    return EntitySpawnEvent(
        time=3.0,
        entity_id=7,
        kind=EntityKind.PLAYER,
        position=Vec3(1.5, 64.0, -2.5),
        name=name,
    )


def move(kind_value="", name=""):
    return GhostMove(
        entity_id=7, x=1.5, y=64.0, z=-2.5, yaw=90.0, pitch=0.0, time=3.0,
        kind_value=kind_value, name=name,
    )


def despawn():
    return EntityDespawnEvent(time=3.0, entity_id=7, position=Vec3(1.5, 64.0, -2.5))


def block():
    return BlockChangeEvent(
        time=3.0,
        pos=BlockPos(4, 65, -9),
        old_block=BlockType.AIR,
        new_block=BlockType.STONE,
    )


def chat(text="hello"):
    return ChatEvent(time=3.0, sender_id=7, text=text)


#: Every record a peer can receive, each as a one-record PeerUpdates, and
#: every other bus message: the modelled wire size E11's intershard bytes
#: sum. The sizes are literals; only how a message is built may change.
WIRE_SIZES = [
    ("spawn", lambda: PeerUpdates(records=(spawn(),)), 45),
    ("spawn-unnamed", lambda: PeerUpdates(records=(spawn(""),)), 40),
    ("move", lambda: PeerUpdates(records=(move(),)), 36),
    ("move-spawnable", lambda: PeerUpdates(records=(move("cow", "Daisy"),)), 36),
    ("despawn", lambda: PeerUpdates(records=(despawn(),)), 22),
    ("block", lambda: PeerUpdates(records=(block(),)), 26),
    ("chat", lambda: PeerUpdates(records=(chat(),)), 25),
    ("chat-empty", lambda: PeerUpdates(records=(chat(""),)), 20),
    (
        "updates-mixed",
        lambda: PeerUpdates(records=(move(), block(), chat("hi"), despawn())),
        64,
    ),
    ("updates-empty", lambda: PeerUpdates(records=()), 14),
    (
        "snapshot",
        lambda: PeerSnapshot(chunk=ChunkPos(0, -1), records=(spawn(), spawn("bob"))),
        80,
    ),
    ("snapshot-empty", lambda: PeerSnapshot(chunk=ChunkPos(0, -1), records=()), 20),
    (
        "handoff",
        lambda: SessionHandoff(
            client_id=3, entity_id=7, position=Vec3(1.5, 64.0, -2.5), yaw=90.0, pitch=10.0
        ),
        52,
    ),
    (
        "transfer",
        lambda: EntityTransfer(
            entity_id=7, kind=EntityKind.COW, position=Vec3(1.5, 64.0, -2.5), name="Daisy"
        ),
        47,
    ),
    (
        "transfer-unnamed",
        lambda: EntityTransfer(
            entity_id=7, kind=EntityKind.COW, position=Vec3(1.5, 64.0, -2.5)
        ),
        42,
    ),
    (
        "subscribe",
        lambda: PeerSubscribe(chunk=ChunkPos(0, -1), bounds=Bounds(1.0, 50.0)),
        36,
    ),
    ("unsubscribe", lambda: PeerUnsubscribe(chunk=ChunkPos(0, -1)), 20),
]


@pytest.mark.parametrize(
    "build, size", [row[1:] for row in WIRE_SIZES], ids=[row[0] for row in WIRE_SIZES]
)
def test_wire_size_per_message(build, size):
    message = build()
    assert message.wire_size() == size
    bus, __ = make_bus()
    bus.post(0, 1, message)
    assert bus.total_bytes == size


def test_pending_by_edge_exposes_messages_for_the_auditor():
    bus, __ = make_bus((0, 1, 2))
    bus.post(0, 1, tagged("a"))
    bus.post(2, 1, tagged("b"))
    pending = bus.pending_by_edge()
    assert set(pending) == {(0, 1), (2, 1)}
    assert tag_of(pending[(0, 1)][0]) == "a"
    pump(bus)
    assert bus.pending_by_edge() == {}


def test_seq_numbers_survive_many_pumps():
    bus, logs = make_bus()
    for round_index in range(10):
        bus.post(0, 1, tagged(str(round_index)))
        pump(bus)
    assert [tag_of(msg) for __, msg in logs[1]] == [str(i) for i in range(10)]
