"""Tick-framed egress: a corked run is an uncorked run, client by client.

The server tick corks the transport, so each client is sent one frame per
tick instead of one link trip per packet (``net/transport.py``). The
reference is the same code with nothing held back: ``Transport.cork``
patched to a no-op *here* — there is no such switch in ``src/`` — makes
every ``send`` a one-packet frame again. Per client the two runs must
agree bit for bit on what was sent, when it left and when it arrived, and
on everything the links and the pricing step accumulated from it; only the
interleaving of handler calls across clients may differ.
"""

import pytest

from repro.bots.workload import BUILDER_MIX, Workload, WorkloadSpec
from repro.core.invariants import InvariantAuditor
from repro.faults.link import FaultyLink
from repro.faults.plan import DegradedWindow, FaultPlan
from repro.net.link import ClientLink, LinkConfig
from repro.net.protocol import (
    ChatMessagePacket,
    EntityPositionPacket,
    JoinGamePacket,
    KeepAlivePacket,
    PlayerActionPacket,
)
from repro.net.transport import DeliveredPacket, Transport
from repro.policies import AdaptiveBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.snapshot import capture_server
from repro.sim.simulator import Simulation
from repro.world.events import ChatEvent
from repro.world.geometry import Vec3

BOTS = 12
SEED = 7
END_MS = 6000.0

#: Everything the fault layer can do at once, on jittery links: independent
#: and burst loss, spikes, a degraded-bandwidth window in mid-run.
FAULTS = FaultPlan(
    loss_rate=0.03,
    burst_loss_rate=0.5,
    p_good_to_bad=0.02,
    p_bad_to_good=0.25,
    spike_probability=0.01,
    spike_ms=120.0,
    degraded_windows=(DegradedWindow(2000.0, 3500.0, 0.05),),
)


def run(*, direct_mode: bool, synchronous: bool, faulty: bool) -> dict:
    """The seeded crowd for six simulated seconds; everything observable."""
    sim = Simulation()
    config = ServerConfig(
        seed=SEED,
        synchronous_delivery=synchronous,
        link=LinkConfig(jitter_ms=8.0) if faulty else LinkConfig(),
        faults=FAULTS if faulty else None,
    )
    server = GameServer(
        sim,
        config=config,
        policy=None if direct_mode else AdaptiveBoundsPolicy(tighten_factor=0.95),
        direct_mode=direct_mode,
    )
    server.transport.record_latencies = True
    logs: dict[int, list] = {}
    connect = server.connect

    def recording_connect(name, handler, **kwargs):
        log: list = []

        def tee(delivered):
            assert type(delivered) is DeliveredPacket
            log.append(
                (repr(delivered.packet), delivered.sent_at, delivered.delivered_at)
            )
            handler(delivered)

        session = connect(name, handler=tee, **kwargs)
        logs[session.client_id] = log
        return session

    server.connect = recording_connect
    server.start()
    Workload(
        sim,
        server,
        WorkloadSpec(
            bots=BOTS,
            seed=SEED,
            movement="hotspot",
            behavior=BUILDER_MIX,
            arrival_stagger_ms=10.0,
            measure_interval_ms=0.0,
        ),
    ).start()
    sim.run_until(END_MS)
    server.audit_now()
    transport = server.transport
    links = {client_id: transport.link(client_id) for client_id in logs}
    observed = {
        "logs": logs,
        "stats": {client_id: link.stats for client_id, link in links.items()},
        "busy_until": {
            client_id: (link._busy_until, link._last_delivery_time)
            for client_id, link in links.items()
        },
        "link_drops": {
            client_id: getattr(link, "packets_dropped", 0)
            for client_id, link in links.items()
        },
        "fault_rng": {
            client_id: link._rng.getstate()
            for client_id, link in links.items()
            if isinstance(link, FaultyLink)
        },
        "dropped": transport.packets_dropped,
        "bytes_by_tick": list(server.metrics.series("bytes_total").values),
        "tick_duration_ms": list(server.metrics.series("tick_duration_ms").values),
        "messages_sent": server.messages_sent,
        "latencies": sorted(transport.latencies_ms),
    }
    server.close()
    return observed


@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faulty"])
@pytest.mark.parametrize("synchronous", [True, False], ids=["sync", "scheduled"])
@pytest.mark.parametrize("direct_mode", [True, False], ids=["direct", "adaptive"])
def test_corked_run_equals_uncorked_run(monkeypatch, direct_mode, synchronous, faulty):
    corked = run(direct_mode=direct_mode, synchronous=synchronous, faulty=faulty)
    with monkeypatch.context() as patch:
        patch.setattr(Transport, "cork", lambda self: None)
        uncorked = run(direct_mode=direct_mode, synchronous=synchronous, faulty=faulty)

    assert len(corked["logs"]) == BOTS
    assert sum(len(log) for log in corked["logs"].values()) > 5000
    for client_id, log in corked["logs"].items():
        assert log == uncorked["logs"][client_id], f"client {client_id} diverged"
    if faulty:
        assert corked["dropped"] > 50
        assert len(corked["fault_rng"]) == BOTS
    for field in corked:
        assert corked[field] == uncorked[field], field


def test_link_frame_is_the_per_packet_arithmetic():
    """One frame of N packets leaves a healthy link exactly where N
    ``transmit`` calls do, delivery times and accounting included."""
    packets = [
        KeepAlivePacket(nonce=1),
        EntityPositionPacket(entity_id=300, delta=Vec3(0.1, 0.0, -0.2)),
        EntityPositionPacket(entity_id=7, delta=Vec3(0.3, 0.0, 0.2)),
        ChatMessagePacket(sender_id=1, text="héllo"),
        EntityPositionPacket(entity_id=7, delta=Vec3(0.3, 0.0, 0.2)),
        JoinGamePacket(entity_id=3),
    ]
    config = LinkConfig(bandwidth_bps=3_000_000.0, latency_ms=17.3)
    framed, single = ClientLink(1, config), ClientLink(1, config)
    for now in (0.0, 0.7, 50.0, 50.0, 1e6 / 3.0):
        expected = [single.transmit(packet, now) for packet in packets]
        assert framed.transmit_frame(packets, now) == expected
        assert framed.stats == single.stats
        assert list(framed.stats.bytes_by_kind) == list(single.stats.bytes_by_kind)
        assert framed._busy_until == single._busy_until
        assert framed._last_delivery_time == single._last_delivery_time
    assert framed.transmit_frame([], 60.0) == []


# ----------------------------------------------------------------------
# The cork at the tick's edges
# ----------------------------------------------------------------------


def two_clients(synchronous: bool):
    """A direct-mode server with clients ``a`` and ``b`` in view of each
    other; returns ``(sim, server, a, b, b_log)``."""
    sim = Simulation()
    server = GameServer(
        sim,
        config=ServerConfig(seed=3, synchronous_delivery=synchronous, mob_count=0),
        direct_mode=True,
    )
    server.start(schedule_ticks=False)
    b_log: list = []
    a = server.connect("a", lambda d: None, position=Vec3(8.0, 70.0, 8.0))
    b = server.connect(
        "b", lambda d: b_log.append(d.packet), position=Vec3(10.0, 70.0, 8.0)
    )
    sim.run_until(200.0)  # scheduled mode: let the join traffic arrive
    return sim, server, a, b, b_log


def moves_of(log, entity_id):
    return [
        packet
        for packet in log
        if isinstance(packet, EntityPositionPacket) and packet.entity_id == entity_id
    ]


def test_a_phase_that_raises_leaves_the_transport_uncorked():
    sim, server, a, b, b_log = two_clients(synchronous=True)
    server.submit_action(
        a.client_id, PlayerActionPacket(action="move", position=Vec3(8.5, 70.0, 8.0))
    )
    server.submit_action(a.client_id, PlayerActionPacket(action="chat"))

    def broken_chat(sender_id, text):
        raise RuntimeError("boom")

    server.world.chat = broken_chat
    with pytest.raises(RuntimeError, match="boom"):
        server.tick_once()
    assert server.transport.pending_packets == 0
    server.transport.cork()  # not left corked: corking again is legal
    server.transport.uncork()
    # What was sent before the error reached its link, as without a cork.
    assert len(moves_of(b_log, a.entity_id)) == 1
    assert InvariantAuditor().check_server(server) == []


@pytest.mark.parametrize("synchronous", [True, False], ids=["sync", "scheduled"])
def test_mid_tick_disconnect_flushes_first_and_a_reused_id_starts_clean(synchronous):
    sim, server, a, b, b_log = two_clients(synchronous)
    b_id = b.client_id
    reborn_log: list = []
    at_disconnect: list = []

    def on_event(event):
        if isinstance(event, ChatEvent):
            assert server.transport.pending_packets > 0  # a's move, held for b
            server.disconnect(b_id)
            at_disconnect.append(list(b_log))
            server.connect(
                "b",
                lambda d: reborn_log.append(d.packet),
                position=Vec3(10.0, 70.0, 8.0),
                client_id=b_id,
            )

    server.world.add_listener(on_event)
    server.submit_action(
        a.client_id, PlayerActionPacket(action="move", position=Vec3(8.5, 70.0, 8.0))
    )
    server.submit_action(a.client_id, PlayerActionPacket(action="chat"))
    bytes_before = server.transport.total_bytes()
    server.tick_once()
    sim.run_until(sim.now + 500.0)

    move = EntityPositionPacket(entity_id=a.entity_id, delta=Vec3(0.5, 0.0, 0.0))
    if synchronous:
        # The old connection got its pending move before it closed.
        assert moves_of(at_disconnect[0], a.entity_id) == [move]
    else:
        # It was transmitted (and priced) before the close; the in-flight
        # delivery then died with the old connection's generation.
        assert moves_of(b_log, a.entity_id) == []
    closed = server.transport._closed_stats[-1]
    assert closed.packets_by_kind["EntityPositionPacket"] == 1
    assert server.transport.total_bytes() - bytes_before >= move.wire_size()
    # The new connection under the old id sees only its own session.
    assert isinstance(reborn_log[0], JoinGamePacket)
    assert moves_of(reborn_log, a.entity_id) == []
    assert server.transport.pending_packets == 0
    server.audit_now()


def test_forged_pending_frame_trips_cork_drained_at_audit_and_checkpoint():
    sim = Simulation()
    server = GameServer(
        sim,
        config=ServerConfig(seed=3, mob_count=0),
        policy=AdaptiveBoundsPolicy(),
    )
    server.start(schedule_ticks=False)
    session = server.connect("a", lambda d: None)
    assert InvariantAuditor().check_server(server) == []
    capture_server(server)
    server.transport.cork()
    server.transport.send(session.client_id, KeepAlivePacket())
    found = InvariantAuditor().check_server(server)
    assert [violation.invariant for violation in found] == ["I6.cork-drained"]
    with pytest.raises(RuntimeError, match="corked"):
        capture_server(server)
    server.transport.uncork()
    assert InvariantAuditor().check_server(server) == []
    server.close()
