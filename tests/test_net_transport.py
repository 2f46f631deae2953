"""Unit tests for the transport."""

import itertools

import pytest

from repro.faults.plan import FaultPlan
from repro.net.link import LinkConfig
from repro.net.protocol import ChatMessagePacket, KeepAlivePacket
from repro.net.transport import LatencyReservoir, Transport
from repro.sim.rng import derive_rng


@pytest.fixture
def transport(sim):
    return Transport(sim, LinkConfig(bandwidth_bps=1e9, latency_ms=20.0))


def test_connect_and_send_delivers_later(sim, transport):
    received = []
    transport.connect(1, received.append)
    transport.send(1, KeepAlivePacket())
    assert received == []  # not yet delivered
    sim.run()
    assert len(received) == 1
    assert received[0].latency_ms == pytest.approx(20.0, abs=1.0)


def test_duplicate_connect_rejected(transport):
    transport.connect(1, lambda d: None)
    with pytest.raises(ValueError):
        transport.connect(1, lambda d: None)


def test_send_to_unknown_client_is_dropped(sim, transport):
    transport.send(99, KeepAlivePacket())  # no error
    sim.run()
    assert transport.total_packets() == 0


def test_disconnect_suppresses_inflight_delivery(sim, transport):
    received = []
    transport.connect(1, received.append)
    transport.send(1, KeepAlivePacket())
    transport.disconnect(1)
    sim.run()
    assert received == []


def merged(stats_list, field):
    """``field`` (a per-kind dict) summed over ``stats_list`` in order."""
    total: dict[str, int] = {}
    for stats in stats_list:
        for kind, count in getattr(stats, field).items():
            total[kind] = total.get(kind, 0) + count
    return total


def test_disconnect_preserves_accounting(sim, transport):
    transport.connect(1, lambda d: None)
    transport.send(1, KeepAlivePacket())
    size = KeepAlivePacket().wire_size()
    transport.disconnect(1)
    assert transport.total_bytes() == size
    assert transport.total_packets() == 1

    # Churn next to live clients: the closed links' running sums must
    # equal a walk over every link's stats, live links first.
    closed = [transport._closed_stats[0]]
    live = [transport.connect(client_id, lambda d: None) for client_id in (2, 3, 4)]
    for cycle in range(500):
        client_id = 100 + cycle % 37  # ids are reused, as rejoins do
        churner = transport.connect(client_id, lambda d: None)
        for __ in range(cycle % 4):
            transport.send(client_id, ChatMessagePacket(cycle, "x" * (cycle % 23)))
        if cycle % 5 == 0:
            transport.send(client_id, KeepAlivePacket(nonce=cycle))
        transport.send(2 + cycle % 3, KeepAlivePacket(nonce=cycle))
        transport.disconnect(client_id)
        closed.append(churner.stats)
        every = [link.stats for link in live] + closed
        assert transport.total_bytes() == sum(stats.bytes for stats in every)
        assert transport.total_packets() == sum(stats.packets for stats in every)
    assert transport.client_count == 3
    assert transport._closed_stats == closed
    for field, method in (
        ("bytes_by_kind", transport.bytes_by_kind),
        ("packets_by_kind", transport.packets_by_kind),
    ):
        assert list(method().items()) == list(merged(every, field).items())
    assert list(transport.packets_by_kind()) == ["KeepAlivePacket", "ChatMessagePacket"]


def test_per_kind_accounting(sim, transport):
    transport.connect(1, lambda d: None)
    transport.send(1, KeepAlivePacket())
    transport.send(1, ChatMessagePacket(1, "hello"))
    by_kind = transport.packets_by_kind()
    assert by_kind == {"KeepAlivePacket": 1, "ChatMessagePacket": 1}
    assert set(transport.bytes_by_kind()) == set(by_kind)


def test_latency_recording(sim, transport):
    transport.connect(1, lambda d: None)
    for _ in range(3):
        transport.send(1, KeepAlivePacket())
    sim.run()
    assert len(transport.latencies_ms) == 3
    assert all(latency >= 20.0 for latency in transport.latencies_ms)


def test_latency_reservoir_mode_is_bounded(sim):
    # Default mode samples into a bounded reservoir instead of growing a
    # list forever (the E4 exact mode opts in via record_latencies).
    transport = Transport(
        sim, LinkConfig(bandwidth_bps=1e9, latency_ms=20.0), latency_sample_cap=16
    )
    transport.connect(1, lambda d: None)
    for _ in range(200):
        transport.send(1, KeepAlivePacket())
    sim.run()
    assert len(transport.latencies_ms) == 16
    assert transport.latency_sample_count == 200


def test_exact_mode_keeps_every_latency(sim):
    transport = Transport(
        sim, LinkConfig(bandwidth_bps=1e9, latency_ms=20.0), latency_sample_cap=16
    )
    transport.record_latencies = True
    transport.connect(1, lambda d: None)
    for _ in range(50):
        transport.send(1, KeepAlivePacket())
    sim.run()
    assert len(transport.latencies_ms) == 50


def test_latency_reservoir_is_seeded_and_deterministic():
    def sample(seed: int) -> list[float]:
        reservoir = LatencyReservoir(32, derive_rng(seed, "latency-reservoir"))
        for value in range(1000):
            reservoir.record(float(value))
        return list(reservoir.samples)

    assert sample(7) == sample(7)
    assert sample(7) != sample(8)


def algorithm_r(capacity, values, rng):
    """The textbook reservoir: one ``randrange(count)`` per value past
    capacity, the draw the reservoir's ``getrandbits`` loop reproduces."""
    samples: list[float] = []
    for count, value in enumerate(values, start=1):
        if count <= capacity:
            samples.append(value)
        else:
            slot = rng.randrange(count)
            if slot < capacity:
                samples[slot] = value
    return samples


@pytest.mark.parametrize("capacity", [1, 3, 16, 4096])
def test_latency_reservoir_draws_are_algorithm_r(capacity):
    values = [float((7919 * i) % 10_007) / 3.0 for i in range(20_000)]
    reference_rng = derive_rng(capacity, "latency-reservoir")
    expected = algorithm_r(capacity, values, reference_rng)

    reservoir = LatencyReservoir(capacity, derive_rng(capacity, "latency-reservoir"))
    chunk_sizes = itertools.cycle([0, 1, 2, 7, 3, 64, 1, 333, 5, 1024, 0, 31, 4097])
    start = 0
    while start < len(values):
        size = next(chunk_sizes)
        if size == 1:
            reservoir.record(values[start])
        else:
            reservoir.record_many(iter(values[start : start + size]))
        start += size
    assert reservoir.count == len(values)
    assert reservoir.samples == expected
    assert reservoir._rng.getstate() == reference_rng.getstate()


def test_latency_reservoir_percentiles_match_exact_within_tolerance():
    # The E4 guarantee: reservoir quantiles track exact quantiles.
    values = [float((13 * i) % 997) for i in range(20_000)]
    reservoir = LatencyReservoir(4096, derive_rng(0, "latency-reservoir"))
    for value in values:
        reservoir.record(value)
    exact = sorted(values)
    approx = sorted(reservoir.samples)
    for q in (0.50, 0.95, 0.99):
        exact_q = exact[int(q * (len(exact) - 1))]
        approx_q = approx[int(q * (len(approx) - 1))]
        assert approx_q == pytest.approx(exact_q, rel=0.05)


def test_synchronous_delivery_calls_handler_immediately(sim):
    transport = Transport(sim, LinkConfig(latency_ms=20.0), synchronous_delivery=True)
    received = []
    transport.connect(1, received.append)
    transport.send(1, KeepAlivePacket())
    assert len(received) == 1  # before any sim.run()
    assert received[0].latency_ms >= 20.0  # latency still modelled


def test_corked_sends_leave_as_one_frame_per_client(sim):
    transport = Transport(sim, LinkConfig(latency_ms=20.0), synchronous_delivery=True)
    received = []
    transport.connect(1, lambda d: received.append((1, d.packet)))
    transport.connect(2, lambda d: received.append((2, d.packet)))
    a, b, c = (KeepAlivePacket(nonce=n) for n in range(3))
    transport.cork()
    transport.send(2, a)
    transport.send(1, b)
    transport.send(2, c)
    transport.send(99, a)  # never connected: dropped at send, as uncorked
    assert received == [] and transport.total_packets() == 0
    assert transport.pending_packets == 3
    transport.uncork()
    # Client order (first sent to first), send order within a client.
    assert received == [(2, a), (2, c), (1, b)]
    assert transport.total_packets() == 3
    assert transport.pending_packets == 0
    transport.uncork()  # not corked: a no-op
    transport.send(1, a)  # and sends are immediate again
    assert received[-1] == (1, a)


def test_cork_does_not_nest(transport):
    transport.cork()
    with pytest.raises(RuntimeError):
        transport.cork()
    transport.uncork()
    transport.cork()  # reusable after an uncork
    transport.uncork()


def test_fifo_delivery_order(sim, transport):
    received = []
    transport.connect(1, lambda d: received.append(d.packet))
    a = ChatMessagePacket(1, "first")
    b = ChatMessagePacket(1, "second")
    transport.send(1, a)
    transport.send(1, b)
    sim.run()
    assert received == [a, b]


def test_fifo_order_preserved_under_max_jitter(sim):
    # Property test for the per-link FIFO contract: jitter draws are
    # uniform in [0, jitter_ms); without the monotonic clamp a later
    # packet with a small draw would beat an earlier one with a large
    # draw. Delivery order must equal send order regardless.
    transport = Transport(
        sim, LinkConfig(bandwidth_bps=1e6, latency_ms=10.0, jitter_ms=500.0), seed=3
    )
    received = []
    transport.connect(1, lambda d: received.append(d.packet))
    sent = [ChatMessagePacket(1, f"m{i}" * (1 + i % 7)) for i in range(200)]
    for packet in sent:
        transport.send(1, packet)
    sim.run()
    assert received == sent


def test_fifo_holds_across_interleaved_sends(sim):
    transport = Transport(
        sim, LinkConfig(bandwidth_bps=1e9, latency_ms=5.0, jitter_ms=200.0), seed=9
    )
    received = []
    transport.connect(1, lambda d: received.append(d.packet))
    sent = []
    def send_batch(n):
        def fire():
            for i in range(n):
                packet = KeepAlivePacket(nonce=len(sent))
                sent.append(packet)
                transport.send(1, packet)
        return fire
    for at in (0.0, 50.0, 100.0, 150.0):
        sim.schedule_at(at, send_batch(5))
    sim.run()
    assert received == sent


def test_reconnect_does_not_deliver_stale_inflight_packets(sim, transport):
    # Regression: an in-flight packet from a closed connection must not
    # reach a later connection that reused the same client id.
    old_received, new_received = [], []
    transport.connect(1, old_received.append)
    transport.send(1, KeepAlivePacket())
    transport.disconnect(1)
    transport.connect(1, new_received.append)  # same id, new generation
    sim.run()
    assert old_received == []
    assert new_received == []
    assert transport.reconnect_count == 1


def test_new_generation_traffic_still_flows_after_reconnect(sim, transport):
    received = []
    transport.connect(1, lambda d: received.append(("old", d.packet)))
    transport.send(1, KeepAlivePacket())
    transport.disconnect(1)
    transport.connect(1, lambda d: received.append(("new", d.packet)))
    fresh = ChatMessagePacket(1, "hello again")
    transport.send(1, fresh)
    sim.run()
    assert received == [("new", fresh)]


def test_fault_plan_drops_are_counted_and_not_delivered(sim):
    transport = Transport(
        sim,
        LinkConfig(bandwidth_bps=1e9, latency_ms=5.0),
        seed=11,
        faults=FaultPlan(loss_rate=0.5),
    )
    received = []
    transport.connect(1, received.append)
    for _ in range(400):
        transport.send(1, KeepAlivePacket())
    sim.run()
    assert transport.packets_dropped > 0
    assert len(received) + transport.packets_dropped == 400
    # Bytes are still accounted for dropped packets (server egress).
    assert transport.total_packets() == 400


def test_client_count(transport):
    assert transport.client_count == 0
    transport.connect(1, lambda d: None)
    transport.connect(2, lambda d: None)
    assert transport.client_count == 2
    transport.disconnect(1)
    assert transport.client_count == 1
    assert not transport.is_connected(1)
    assert transport.is_connected(2)
