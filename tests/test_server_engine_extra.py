"""Additional engine behaviours: view-distance overrides, chat bots,
jitter determinism, direct-mode accounting."""

import pytest

from repro.net.link import LinkConfig
from repro.net.protocol import ChunkDataPacket
from repro.net.transport import Transport
from repro.net.protocol import KeepAlivePacket
from repro.policies.zero import ZeroBoundsPolicy
from repro.sim.simulator import Simulation
from repro.world.geometry import Vec3


class Client:
    def __init__(self):
        self.packets = []

    def __call__(self, delivered):
        self.packets.append(delivered.packet)


def test_configured_view_distance_sizes_the_joining_view(server_factory):
    server = server_factory(
        policy=ZeroBoundsPolicy(), synchronous_delivery=True, view_distance=2
    )
    client = Client()
    session = server.connect("near-sighted", handler=client)
    assert session.view_distance == 2
    chunk_packets = [p for p in client.packets if isinstance(p, ChunkDataPacket)]
    assert len(chunk_packets) == 25  # (2*2+1)^2


def test_chat_bot_produces_chat_traffic(sim, server_factory):
    from repro.bots.bot import BotClient
    from repro.net.protocol import ChatMessagePacket

    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    chatty = BotClient(sim, server, "chatty", seed=3, chat_probability=1.0)
    listener = BotClient(sim, server, "listener", seed=3)
    chatty.connect(server.world.surface_position(8.0, 8.0))
    listener.connect(server.world.surface_position(10.0, 10.0))
    sim.run_until(2_000.0)
    assert listener.perceived.chat_log
    assert server.transport.packets_by_kind().get("ChatMessagePacket", 0) > 0


def test_link_jitter_is_seeded_and_deterministic():
    def latencies(seed):
        sim = Simulation()
        transport = Transport(
            sim, LinkConfig(latency_ms=10.0, jitter_ms=8.0), seed=seed
        )
        transport.connect(1, lambda d: None)
        for __ in range(5):
            transport.send(1, KeepAlivePacket())
        sim.run()
        return list(transport.latencies_ms)

    assert latencies(7) == latencies(7)
    assert latencies(7) != latencies(8)


def test_direct_mode_has_no_middleware(server_factory):
    server = server_factory(policy=None, direct_mode=True)
    assert server.dyconits is None
    client = Client()
    server.connect("solo", handler=client)
    assert server.player_count == 1


def test_actions_from_disconnected_clients_are_dropped(sim, server_factory):
    from repro.net.protocol import PlayerActionPacket

    server = server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)
    session = server.connect("ghost", handler=Client())
    server.disconnect(session.client_id)
    server.submit_action(
        session.client_id, PlayerActionPacket("move", position=Vec3(0, 30, 0))
    )
    sim.run_until(sim.now + 200.0)  # must not raise


def test_effective_tick_rate_is_20hz_when_idle(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy())
    sim.run_until(5_000.0)
    assert server.tick_count == pytest.approx(100, abs=2)


def test_restart_does_not_respawn_mobs(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy(), mob_count=8)
    assert server.world.entity_count == 8
    server.stop()
    server.start()
    # Mobs are spawned once per server, not once per start().
    assert server.world.entity_count == 8


def test_restart_does_not_double_schedule_tick_loop(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy())
    sim.run_until(1_000.0)
    server.stop()
    sim.run_until(2_000.0)
    ticks_while_stopped = server.tick_count
    server.start()
    sim.run_until(7_000.0)
    # 5 s at 20 Hz: a doubled loop would show ~200 extra ticks.
    assert server.tick_count - ticks_while_stopped == pytest.approx(100, abs=3)


def test_rapid_stop_start_cycles_keep_single_tick_loop(sim, server_factory):
    server = server_factory(policy=ZeroBoundsPolicy())
    for __ in range(5):
        server.stop()
        server.start()
    sim.run_until(5_000.0)
    assert server.tick_count == pytest.approx(100, abs=3)
    with pytest.raises(RuntimeError):
        server.start()  # starting a running server is a caller bug
