"""Fault-injection integration tests: determinism and differentials.

Two properties make the fault layer usable as a research instrument:

* same seed => bit-identical faulty runs (loss, spikes, churn and all);
* a zero-rate :class:`FaultPlan` is packet-for-packet identical to
  running with no fault layer installed at all.
"""

from repro.bots.workload import ChurnSpec, ChurnWorkload, WorkloadSpec
from repro.experiments.configs import ExperimentConfig
from repro.experiments.figures import make_fault_plan
from repro.experiments.runner import run_experiment
from repro.faults import FaultPlan
from repro.net.link import LinkConfig
from repro.net.protocol import ChatMessagePacket, KeepAlivePacket
from repro.net.transport import Transport
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.world.world import World


FAULTY_CONFIG = ExperimentConfig(
    name="determinism",
    policy="adaptive",
    bots=10,
    duration_ms=8_000.0,
    warmup_ms=3_000.0,
    seed=1234,
    faults=make_fault_plan(0.05),
    churn=ChurnSpec(interval_ms=600.0, rejoin_delay_ms=500.0, start_after_ms=500.0),
)


def test_same_seed_faulty_runs_are_bit_identical():
    first = run_experiment(FAULTY_CONFIG)
    second = run_experiment(FAULTY_CONFIG)

    assert first.bytes_total == second.bytes_total
    assert first.packets_total == second.packets_total
    assert first.bytes_by_kind == second.bytes_by_kind
    assert first.packets_by_kind == second.packets_by_kind
    assert first.packets_dropped == second.packets_dropped
    assert first.reconnects == second.reconnects
    assert first.churn_crashes == second.churn_crashes
    assert first.churn_rejoins == second.churn_rejoins
    # Whole metric series match point for point, not just the totals.
    assert first.bandwidth_timeline == second.bandwidth_timeline
    assert first.player_timeline == second.player_timeline
    assert first.tick_timeline == second.tick_timeline
    assert first.staleness_p99_ms == second.staleness_p99_ms
    # And the run actually exercised faults and churn.
    assert first.packets_dropped > 0
    assert first.churn_crashes > 0
    assert first.reconnects > 0


def test_different_seed_changes_the_fault_pattern():
    baseline = run_experiment(FAULTY_CONFIG)
    other = run_experiment(FAULTY_CONFIG.with_(seed=4321))
    assert (
        baseline.packets_dropped != other.packets_dropped
        or baseline.bytes_total != other.bytes_total
    )


def _drive_transport(faults: FaultPlan | None):
    """A fixed packet script through one jittery link; returns the
    delivered (kind, sent_at, delivered_at) triples and the totals."""
    sim = Simulation()
    transport = Transport(
        sim, LinkConfig(latency_ms=20.0, jitter_ms=15.0), seed=99, faults=faults
    )
    received = []
    transport.connect(
        1, lambda d: received.append((d.packet.kind, d.sent_at, d.delivered_at))
    )

    def send_batch(index: int) -> None:
        transport.send(1, KeepAlivePacket())
        transport.send(1, ChatMessagePacket(sender_id=1, text=f"msg {index}"))

    for index in range(200):
        sim.schedule_at(index * 10.0, lambda index=index: send_batch(index))
    sim.run()
    return received, transport.total_bytes(), transport.total_packets()


def test_zero_rate_plan_is_packet_identical_to_no_fault_layer():
    with_layer, layer_bytes, layer_packets = _drive_transport(FaultPlan())
    without, plain_bytes, plain_packets = _drive_transport(None)
    assert with_layer == without
    assert layer_bytes == plain_bytes
    assert layer_packets == plain_packets


def test_zero_rate_plan_matches_plain_server_run():
    def run(faults: FaultPlan | None):
        sim = Simulation()
        server = GameServer(
            sim,
            world=World(seed=7),
            config=ServerConfig(seed=7, synchronous_delivery=True, faults=faults),
            direct_mode=True,
        )
        server.start()
        workload = ChurnWorkload(
            sim,
            server,
            WorkloadSpec(bots=6, seed=7),
            churn=ChurnSpec(interval_ms=700.0, rejoin_delay_ms=400.0),
        )
        workload.start()
        sim.run_until(6_000.0)
        return server.transport

    with_layer = run(FaultPlan())
    plain = run(None)
    assert with_layer.total_bytes() == plain.total_bytes()
    assert with_layer.total_packets() == plain.total_packets()
    assert with_layer.bytes_by_kind() == plain.bytes_by_kind()
    assert with_layer.packets_dropped == 0


def test_churn_with_id_reuse_keeps_sessions_and_subscriptions_consistent():
    sim = Simulation()
    from repro.policies.fixed import FixedBoundsPolicy

    server = GameServer(
        sim,
        world=World(seed=11),
        config=ServerConfig(seed=11, synchronous_delivery=True),
        policy=FixedBoundsPolicy(),
    )
    server.start()
    workload = ChurnWorkload(
        sim,
        server,
        WorkloadSpec(bots=8, seed=11),
        churn=ChurnSpec(interval_ms=500.0, rejoin_delay_ms=300.0),
    )
    workload.start()
    sim.run_until(12_000.0)

    assert workload.crashes > 0
    assert workload.rejoins > 0
    assert server.transport.reconnect_count == workload.rejoins
    # Middleware state survived every crash/rejoin cycle: registered
    # subscribers correspond exactly to live sessions.
    live = set(server.sessions)
    assert {s.subscriber_id for s in server.dyconits.subscribers()} == live
    for dyconit in server.dyconits.dyconits():
        for state in dyconit.subscription_states():
            assert state.subscriber.subscriber_id in live


def test_rejoined_bots_rebuild_their_replica_from_scratch():
    sim = Simulation()
    server = GameServer(
        sim,
        world=World(seed=13),
        config=ServerConfig(seed=13, synchronous_delivery=True),
        direct_mode=True,
    )
    server.start()
    workload = ChurnWorkload(
        sim,
        server,
        WorkloadSpec(bots=4, seed=13),
        churn=ChurnSpec(interval_ms=600.0, rejoin_delay_ms=400.0),
    )
    workload.start()
    sim.run_until(10_000.0)
    assert workload.rejoins > 0
    for bot in workload.bots:
        if not bot.connected:
            continue
        # A rejoined bot's perceived world contains only live entities —
        # nothing leaked over from its previous life.
        for entity_id in bot.perceived.entity_positions:
            if entity_id == bot.entity_id:
                continue
            assert server.world.get_entity(entity_id) is not None
