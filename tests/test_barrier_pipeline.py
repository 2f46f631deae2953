"""The pipelined cluster barrier (DESIGN.md S26).

Two halves, each pinned here against what it must not change:

* **Relay before replay** (:class:`ParallelShardRunner`): a worker
  reply's bus posts and mirror effects are merged, the next bus round is
  shipped, and only then are the reply's client packets replayed — in
  the pump for every round, and at a tick for the pump's first round when
  the pump is the very next event at that instant.
* **A round lands as one unit** (:meth:`ShardServer.deliver_round`):
  one corked transport and one commit batch per destination per round,
  flushed before every message that is not a record batch — equal, per
  client, per dyconit counter and per bus post, to applying the messages
  one at a time (``per_message_round`` in ``tests/conftest.py``).
"""

import contextlib
import os
import signal

import pytest

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.cluster import ParallelShardRunner, ShardedCluster
from repro.cluster.bus import InterShardBus
from repro.cluster.messages import (
    PeerSnapshot,
    PeerSubscribe,
    PeerUpdates,
    SessionHandoff,
)
from repro.cluster.runner import _MirrorWorld, _ShardHandle
from repro.core.bounds import Bounds
from repro.net.transport import Transport
from repro.policies.zero import ZeroBoundsPolicy
from repro.server.config import ServerConfig
from repro.sim.simulator import Simulation
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.events import BlockChangeEvent, EntitySpawnEvent
from repro.world.geometry import BlockPos

SEED = 77
TICK_MS = 50.0


def make_cluster(parallel, sim):
    config = ServerConfig(seed=SEED, synchronous_delivery=True, mob_count=3)
    cls = ParallelShardRunner if parallel else ShardedCluster
    return cls(
        sim, shards=2, strip_width=4, config=config, policy_factory=ZeroBoundsPolicy
    )


def start_workload(sim, cluster, log=None):
    """Start ``cluster`` and an 8-bot gathering crowd on it. Returns each
    bot's received ``(repr, sent_at, delivered_at)`` by bot name; every
    packet is also appended to ``log`` as ``("packet", name, repr,
    sent_at, delivered_at)``."""
    captures: dict[str, list] = {}
    original_connect = cluster.connect

    def tapping_connect(name, handler, **kwargs):
        def tapped(delivered):
            entry = (
                "packet",
                name,
                repr(delivered.packet),
                delivered.sent_at,
                delivered.delivered_at,
            )
            captures.setdefault(name, []).append(entry[2:])
            if log is not None:
                log.append(entry)
            handler(delivered)

        return original_connect(name, tapped, **kwargs)

    cluster.connect = tapping_connect
    cluster.start()
    spec = WorkloadSpec(
        bots=8,
        seed=SEED,
        movement="gathering",
        behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
        arrival_stagger_ms=40.0,
    )
    Workload(sim, cluster, spec).start()
    return captures


@pytest.fixture
def command_log(monkeypatch):
    """Every worker command the parent sends, as ``("send", command,
    simulated time)``, and every reply it receives, as ``("reply",
    command, simulated time, packets in the reply)``, in one list."""
    log: list = []
    send, recv = _ShardHandle._send, _ShardHandle._recv
    awaiting: dict[int, list[str]] = {}

    def logged_send(handle, cmd, payload):
        log.append(("send", cmd, handle._runner.sim.now))
        awaiting.setdefault(handle.shard_id, []).append(cmd)
        send(handle, cmd, payload)

    def logged_recv(handle):
        out = recv(handle)
        cmd = awaiting[handle.shard_id].pop(0)
        log.append(("reply", cmd, handle._runner.sim.now, len(out["packets"])))
        return out

    monkeypatch.setattr(_ShardHandle, "_send", logged_send)
    monkeypatch.setattr(_ShardHandle, "_recv", logged_recv)
    return log


# ----------------------------------------------------------------------
# Relay before replay (parallel runner)
# ----------------------------------------------------------------------


def test_round_one_leaves_before_the_ticks_packets_are_replayed(command_log):
    """(a) On an aligned run, the pump's first round is sent to the
    workers before any of that instant's tick packets reach a handler."""
    sim = Simulation()
    cluster = make_cluster(True, sim)
    try:
        start_workload(sim, cluster, command_log)
        sim.run_until(3_000.0)
    finally:
        cluster.finalize()
    checked = 0
    by_time: dict[float, dict] = {}
    for index, entry in enumerate(command_log):
        if entry[0] == "send" and entry[1] in ("tick", "pump"):
            by_time.setdefault(entry[2], {}).setdefault(entry[1], index)
        elif entry[0] == "packet":
            times = by_time.get(entry[3])
            if times is not None and "tick" in times:
                times.setdefault("packet", index)
    for now, first in sorted(by_time.items()):
        if "pump" in first and "packet" in first and "tick" in first:
            assert first["pump"] < first["packet"], f"round 1 replayed first at {now}"
            checked += 1
    assert checked > 20  # instants with tick packets and a non-empty round 1


def test_an_event_between_tick_and_pump_sees_the_tick_replayed(command_log):
    """(b) A probe the test schedules between a tick and the pump at the
    same instant finds every packet of that tick replayed, and the pump's
    first round not yet sent: the instant is not pre-shipped."""
    probe_at = 2_000.0
    sim = Simulation()
    cluster = make_cluster(True, sim)
    seen = []
    shard_tick = cluster._shard_tick

    def probe():
        tick_packets = sum(
            entry[3]
            for entry in command_log
            if entry[0] == "reply" and entry[1] == "tick" and entry[2] == probe_at
        )
        replayed = sum(
            1 for entry in command_log if entry[0] == "packet" and entry[3] == probe_at
        )
        pumps = [
            entry for entry in command_log if entry[:3] == ("send", "pump", probe_at)
        ]
        seen.append((tick_packets, replayed, pumps))

    def tick_then_schedule_probe(shard_id):
        shard_tick(shard_id)
        # Scheduled after the tick at probe_at (queued one tick ago) and
        # before the pump at probe_at (queued by the pump that follows).
        if sim.now == probe_at - TICK_MS and not seen and shard_id == 0:
            seen.append("scheduled")
            sim.schedule_at(probe_at, probe)

    cluster._shard_tick = tick_then_schedule_probe
    try:
        start_workload(sim, cluster, command_log)
        sim.run_until(probe_at + 200.0)
    finally:
        cluster.finalize()
    assert seen[0] == "scheduled" and len(seen) == 2
    tick_packets, replayed, pumps = seen[1]
    assert tick_packets > 0
    assert replayed == tick_packets
    assert pumps == []
    # The pump still ran at that instant, after the probe.
    assert ("send", "pump", probe_at) in command_log


def test_every_shipped_packet_is_replayed_when_the_pump_returns(command_log):
    """Nothing a worker shipped is held past its barrier: when ``_pump``
    returns, the handlers have seen every packet of every reply so far."""
    sim = Simulation()
    cluster = make_cluster(True, sim)
    pump = cluster._pump
    mismatches = []

    def checked_pump():
        pump()
        shipped = sum(entry[3] for entry in command_log if entry[0] == "reply")
        replayed = sum(1 for entry in command_log if entry[0] == "packet")
        if shipped != replayed:
            mismatches.append((sim.now, shipped, replayed))

    cluster._pump = checked_pump
    try:
        start_workload(sim, cluster, command_log)
        sim.run_until(3_000.0)
    finally:
        cluster.finalize()
    assert mismatches == []
    assert sum(1 for entry in command_log if entry[:2] == ("send", "pump")) > 50


def test_pipelined_barrier_is_packet_identical_to_serial():
    """Per client, ``(repr, sent_at, delivered_at)`` in order — parallel
    with the pipelined barrier against the serial cluster — and the bus
    carried the same traffic."""
    runs = []
    for parallel in (False, True):
        sim = Simulation()
        cluster = make_cluster(parallel, sim)
        captures = start_workload(sim, cluster)
        sim.run_until(4_000.0)
        if parallel:
            cluster.finalize()
        else:
            cluster.close()
        runs.append((captures, cluster))
    (serial_caps, serial), (par_caps, par) = runs
    assert serial_caps == par_caps
    assert serial.handoffs > 0 and serial.handoffs == par.handoffs
    assert serial.bus.total_messages == par.bus.total_messages
    assert serial.bus.last_pump_rounds == par.bus.last_pump_rounds
    assert serial.pump_count == par.pump_count


# ----------------------------------------------------------------------
# A round lands as one unit (ShardServer.deliver_round)
# ----------------------------------------------------------------------


def test_a_pump_round_sends_each_client_one_frame(monkeypatch):
    """(c) Inside a pump round a client's packets leave as one frame."""
    log: list = []
    send_frame = Transport._send_frame
    take_round = InterShardBus.take_round

    def logged_send_frame(transport, client_id, packets):
        log.append(("frame", id(transport), client_id, len(packets)))
        send_frame(transport, client_id, packets)

    def logged_take_round(bus):
        log.append(("round",))
        return take_round(bus)

    monkeypatch.setattr(Transport, "_send_frame", logged_send_frame)
    monkeypatch.setattr(InterShardBus, "take_round", logged_take_round)
    sim = Simulation()
    cluster = make_cluster(False, sim)
    pump = cluster._pump
    rounds: list[list] = []

    def recording_pump():
        log.clear()
        pump()
        for entry in log:
            if entry[0] == "round":
                rounds.append([])
            elif rounds:
                rounds[-1].append(entry[1:])

    cluster._pump = recording_pump
    start_workload(sim, cluster)
    sim.run_until(3_000.0)
    cluster.close()
    multi_packet = 0
    for frames in rounds:
        receivers = [(transport, client) for transport, client, __ in frames]
        assert len(receivers) == len(set(receivers))
        multi_packet += sum(1 for __, __, count in frames if count > 1)
    assert multi_packet > 0  # clients did get several packets in a round


def _inject_tape(cluster):
    """Post a scripted round on edge 0 -> 1: record batches with a peer
    subscribe, a session handoff and a snapshot between them."""
    shard0, shard1 = cluster.shards
    viewed = list(shard1.viewers._viewers_by_chunk)
    owned = [
        chunk
        for chunk in viewed
        if cluster.router.shard_for_chunk(chunk) == 1
        and chunk not in shard1.peer_registry.get(0, {})
        and chunk not in shard0.remote_interest.get(1, {})
    ]
    foreign = [chunk for chunk in shard1.remote_interest.get(0, {})]
    assert owned and foreign, "the tape needs a shard-1 chunk and a subscribed one"
    chunk = owned[0]

    def block(dx, value):
        x, z = chunk.cx * 16 + dx, chunk.cz * 16 + 8
        y = shard1.world.surface_height(x, z) + 3
        record = BlockChangeEvent(
            time=0.0,
            pos=BlockPos(x, y, z),
            old_block=BlockType.AIR,
            new_block=BlockType(value),
        )
        return PeerUpdates(records=(record,))

    client_id = sorted(shard0.sessions)[0]
    session = shard0.sessions[client_id]
    entity = shard0.world.get_entity(session.entity_id)
    target = cluster.world.surface_position(-40.0, 8.0)
    assert cluster.router.shard_for_position(target) == 1
    snapshot = PeerSnapshot(
        chunk=foreign[0],
        records=tuple(
            EntitySpawnEvent(
                time=cluster.sim.now,
                entity_id=e.entity_id,
                kind=e.kind,
                position=e.position,
                name=e.name,
            )
            for e in sorted(
                shard0.world.entities_in_chunk(foreign[0]), key=lambda e: e.entity_id
            )
            if e.entity_id not in shard0.ghost_ids
        ),
    )
    # What shard 0 would have done: take interest in the chunk, and
    # emigrate the session.
    shard0.remote_interest.setdefault(1, {})[chunk] = None
    shard0.handoffs_out += 1
    cluster.on_handoff_started(client_id, 0, 1)
    shard0.disconnect(client_id)
    tape = [
        block(2, BlockType.STONE.value),
        PeerSubscribe(chunk=chunk, bounds=Bounds.ZERO),
        block(4, BlockType.PLANKS.value),
        SessionHandoff(
            client_id=client_id,
            entity_id=entity.entity_id,
            position=target,
            yaw=entity.yaw,
            pitch=entity.pitch,
        ),
        block(6, BlockType.COBBLESTONE.value),
        snapshot,
        block(8, BlockType.DIRT.value),
    ]
    for message in tape:
        cluster.bus.post(0, 1, message)
    return client_id, chunk


def _run_tape(monkeypatch, context):
    """The crowd with the tape posted just before the pump at 2 s; per
    client packets, each shard's ``DyconitStats``, every bus post in
    order, and what the round left behind."""
    posts: list = []
    post = InterShardBus.post

    def logged_post(bus, src, dst, message):
        posts.append((src, dst, repr(message)))
        post(bus, src, dst, message)

    landed = []
    with monkeypatch.context() as patch:
        patch.setattr(InterShardBus, "post", logged_post)
        with context():
            sim = Simulation()
            cluster = make_cluster(False, sim)
            captures = start_workload(sim, cluster)
            taped = []
            sim.schedule_at(1_990.0, lambda: taped.append(_inject_tape(cluster)))

            def after_the_pump():
                client_id, chunk = taped[0]
                landed.append(
                    (
                        cluster.shard_of(client_id),
                        chunk in cluster.shards[1].peer_registry[0],
                    )
                )

            sim.schedule_at(2_010.0, after_the_pump)
            sim.run_until(3_000.0)
            cluster.close()
    stats = [shard.dyconits.stats for shard in cluster.shards]
    return captures, stats, posts, landed


def test_a_scripted_round_equals_per_message_delivery(monkeypatch, per_message_rounds):
    """(d) The scripted tape delivered as one unit per round equals the
    per-message reference: per client ``(repr, sent_at, delivered_at)``,
    every ``DyconitStats`` counter, and every bus post in order."""
    captures, stats, posts, landed = _run_tape(monkeypatch, contextlib.nullcontext)
    reference = _run_tape(monkeypatch, per_message_rounds)
    assert captures == reference[0]
    assert stats == reference[1]
    assert posts == reference[2]
    # The tape did its work: the session moved and the peer subscribed.
    assert landed == reference[3] == [(1, True)]


# ----------------------------------------------------------------------
# Satellites: the mirror keeps its entities; a dead worker is diagnosed
# ----------------------------------------------------------------------


def _row(entity_id, x, name="", kind=EntityKind.PLAYER):
    return (entity_id, kind.value, x, 30.0, 1.0, 10.0, -5.0, name)


def test_the_mirror_moves_held_entities_while_the_ids_hold():
    mirror = _MirrorWorld(SEED, 1, 2)
    mirror.apply_entities((_row(3, 1.0, "a"), _row(1, 2.0, "b")))
    first = mirror.entities()
    mirror.apply_entities((_row(3, 1.5, "a"), _row(1, 2.5, "b")))
    second = mirror.entities()
    assert [e is f for e, f in zip(first, second)] == [True, True]
    assert [(e.entity_id, e.position.x, e.yaw, e.pitch) for e in second] == [
        (3, 1.5, 10.0, -5.0),
        (1, 2.5, 10.0, -5.0),
    ]
    # A changed id sequence (order included) rebuilds in shipped order.
    mirror.apply_entities((_row(1, 2.5, "b"), _row(3, 1.5, "a")))
    assert [e.entity_id for e in mirror.entities()] == [1, 3]
    mirror.apply_entities((_row(1, 2.5, "b"),))
    assert [e.entity_id for e in mirror.entities()] == [1]
    assert mirror.get_entity(3) is None


def test_a_killed_worker_is_a_diagnosed_stop():
    sim = Simulation()
    cluster = make_cluster(True, sim)
    try:
        start_workload(sim, cluster)
        sim.run_until(1_000.0)
        worker = cluster.shards[1]._process
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10)
        with pytest.raises(RuntimeError, match=r"shard 1 worker is gone") as excinfo:
            sim.run_until(2_000.0)
        message = str(excinfo.value)
        assert "'tick'" in message or "'pump'" in message
        assert "simulated time 1050.0 ms" in message
        assert f"exit code {-signal.SIGKILL}" in message
    finally:
        cluster.close()
    assert not any(handle._process.is_alive() for handle in cluster.shards)
