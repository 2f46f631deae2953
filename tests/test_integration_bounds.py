"""End-to-end bound-enforcement integration tests.

These exercise the middleware's central promise through the full stack
(world -> middleware -> codec -> transport -> bot replica): the
inconsistency a client observes is governed by the bounds the policy set.
"""

import pytest

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.core.bounds import Bounds
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.config import TICK_INTERVAL_MS, ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.world.world import World


def run_fixed_bounds(bounds: Bounds, bots: int = 8, duration_ms: float = 10_000.0):
    sim = Simulation()
    server = GameServer(
        sim,
        world=World(seed=55),
        config=ServerConfig(seed=55, synchronous_delivery=True),
        policy=FixedBoundsPolicy(bounds),
    )
    server.start()
    spec = WorkloadSpec(
        bots=bots, seed=55, movement="hotspot",
        behavior=BehaviorMix(), arrival_stagger_ms=0.0,
        measure_interval_ms=250.0,
    )
    workload = Workload(sim, server, spec)
    workload.start()
    sim.run_until(duration_ms)
    return sim, server, workload


def test_staleness_bound_caps_queue_delay():
    """No delivered update may have waited longer than the staleness bound
    (plus one tick of scheduling slack)."""
    staleness_ms = 400.0
    sim, server, __ = run_fixed_bounds(Bounds(numerical=1e9, staleness_ms=staleness_ms))
    delay_hist = server.metrics.histogram("update_queue_delay_ms", min_value=0.1)
    assert delay_hist.count > 0
    assert delay_hist.max_value <= staleness_ms + 2 * TICK_INTERVAL_MS


def test_tighter_staleness_means_fresher_replicas():
    __, __, loose = run_fixed_bounds(Bounds(1e9, 1_000.0))
    __, __, tight = run_fixed_bounds(Bounds(1e9, 100.0))
    assert tight.staleness_histogram.quantile(0.95) < loose.staleness_histogram.quantile(0.95)


def test_tighter_numerical_bound_means_less_error():
    __, __, loose = run_fixed_bounds(Bounds(40.0, 1e7))
    __, __, tight = run_fixed_bounds(Bounds(4.0, 1e7))
    assert tight.error_histogram.mean < loose.error_histogram.mean


def test_looser_bounds_send_less():
    sims = {}
    for label, bounds in (("tight", Bounds(2.0, 100.0)), ("loose", Bounds(50.0, 2_000.0))):
        __, server, __ = run_fixed_bounds(bounds)
        sims[label] = server.transport.total_packets()
    assert sims["loose"] < sims["tight"]


def test_final_flush_converges_replicas():
    """After a global flush barrier and delivery, every bot's replica of
    every surviving entity matches the authoritative world."""
    sim, server, workload = run_fixed_bounds(Bounds(30.0, 2_000.0), duration_ms=6_000.0)
    # Freeze the workload so no new updates race the barrier.
    for bot in workload.bots:
        if bot._act_event is not None:
            bot._act_event.cancel()
    sim.run_until(sim.now + 200.0)  # drain in-flight actions
    server.dyconits.flush_all()
    for bot in workload.bots:
        for error in bot.positional_errors():
            assert error == pytest.approx(0.0, abs=1e-9)
