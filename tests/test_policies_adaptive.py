"""Unit tests for the load-adaptive policy."""

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.policy import LoadSignals
from repro.policies.adaptive import AdaptiveBoundsPolicy
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


def signals(utilization: float, now: float = 0.0, bytes_per_s: float = 0.0):
    budget = 50.0
    return LoadSignals(
        now=now,
        player_count=100,
        last_tick_duration_ms=utilization * budget,
        smoothed_tick_duration_ms=utilization * budget,
        tick_budget_ms=budget,
        outgoing_bytes_per_second=bytes_per_s,
    )


def build(policy=None):
    policy = policy if policy is not None else AdaptiveBoundsPolicy()
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    return system, policy


def test_factor_starts_at_one():
    assert AdaptiveBoundsPolicy().factor == 1.0


def test_overload_loosens():
    system, policy = build()
    policy.evaluate(system, signals(utilization=0.9))
    assert policy.factor > 1.0


def test_underload_tightens_toward_vanilla():
    system, policy = build()
    for step in range(20):
        policy.evaluate(system, signals(utilization=0.1, now=step * 1000.0))
    assert policy.factor == policy.min_factor


def test_band_between_watermarks_holds_steady():
    system, policy = build()
    before = policy.factor
    policy.evaluate(system, signals(utilization=0.65))
    assert policy.factor == before


def test_factor_respects_max():
    system, policy = build(AdaptiveBoundsPolicy(max_factor=4.0))
    for step in range(20):
        policy.evaluate(system, signals(utilization=2.0, now=step * 1000.0))
    assert policy.factor == 4.0


def test_factor_recovers_from_zero_under_load():
    """Once tightened all the way to vanilla, an overload must still be
    able to loosen again (the factor cannot get stuck at zero)."""
    system, policy = build()
    for step in range(20):
        policy.evaluate(system, signals(utilization=0.1, now=step * 1000.0))
    assert policy.factor == policy.min_factor
    policy.evaluate(system, signals(utilization=0.95, now=100_000.0))
    assert policy.factor > 0.0


def test_bandwidth_budget_triggers_loosening():
    system, policy = build(
        AdaptiveBoundsPolicy(bandwidth_budget_bytes_per_s=1_000_000.0)
    )
    policy.evaluate(system, signals(utilization=0.1, bytes_per_s=2_000_000.0))
    assert policy.factor > 1.0


def test_bounds_scale_with_factor():
    system, policy = build()
    rec = RecordingSubscriber(position=Vec3(8.0, 30.0, 8.0))
    state = system.subscribe(("chunk", 3, 0), rec.subscriber)
    base = state.bounds
    policy.evaluate(system, signals(utilization=0.9))
    assert state.bounds.numerical > base.numerical


def test_nearby_bounds_loosen_under_load_too():
    """In a packed village everyone shares a chunk; the adaptive factor
    must be able to shed that traffic as well (via the distance floor)."""
    system, policy = build()
    rec = RecordingSubscriber(position=Vec3(8.0, 30.0, 8.0))
    state = system.subscribe(("chunk", 0, 0), rec.subscriber)
    base = state.bounds
    assert not base.is_zero
    policy.evaluate(system, signals(utilization=0.95))
    assert state.bounds.numerical > base.numerical


def test_factor_history_recorded():
    system, policy = build()
    policy.evaluate(system, signals(utilization=0.9, now=1000.0))
    policy.evaluate(system, signals(utilization=0.9, now=2000.0))
    assert [t for t, __ in policy.factor_history] == [1000.0, 2000.0]


def test_constructor_validation():
    with pytest.raises(ValueError):
        AdaptiveBoundsPolicy(low_watermark=0.9, high_watermark=0.8)
    with pytest.raises(ValueError):
        AdaptiveBoundsPolicy(loosen_factor=0.9)
    with pytest.raises(ValueError):
        AdaptiveBoundsPolicy(tighten_factor=1.5)


def test_evaluation_period_configurable():
    policy = AdaptiveBoundsPolicy(evaluation_period_ms=250.0)
    assert policy.evaluation_period_ms == 250.0


def test_on_subscriber_moved_uses_current_factor():
    system, policy = build()
    rec = RecordingSubscriber(position=Vec3(8.0, 30.0, 8.0))
    state = system.subscribe(("chunk", 3, 0), rec.subscriber)
    policy.evaluate(system, signals(utilization=0.9))
    loosened = state.bounds
    policy.on_subscriber_moved(system, rec.subscriber)
    assert state.bounds == loosened  # same position, same factor


def test_retune_sweep_installs_exactly_bounds_for_on_every_pair():
    """``_reapply_all`` goes through the position-hoisting sweep; what it
    installs must be ``bounds_for`` of each pair, bit for bit, and peer
    subscriptions must stay untouched."""
    system, policy = build()
    rec = RecordingSubscriber(subscriber_id=1, position=Vec3(8.0, 30.0, 8.0))
    other = RecordingSubscriber(subscriber_id=2, position=Vec3(-40.0, 30.0, 21.5))
    peer = RecordingSubscriber(subscriber_id=-1)
    peer.subscriber.kind = "peer"
    ids = [("chunk", cx, cz) for cx in range(-2, 3) for cz in (0, 3)] + [("global",)]
    for dyconit_id in ids:
        system.subscribe(dyconit_id, rec.subscriber)
        system.subscribe(dyconit_id, other.subscriber)
        system.subscribe(dyconit_id, peer.subscriber, bounds=Bounds(1.0, 10.0))
    policy.evaluate(system, signals(2.0))  # overload: factor moves, sweep runs
    assert policy.factor != 1.0
    for dyconit_id in ids:
        dyconit = system.get(dyconit_id)
        for subscriber in (rec.subscriber, other.subscriber):
            assert dyconit.get_state(subscriber.subscriber_id).bounds == (
                policy.bounds_for(system, dyconit_id, subscriber)
            )
            assert policy.bounds_for(system, dyconit_id, subscriber) == (
                policy.shape.bounds_for(system, dyconit_id, subscriber).scaled(
                    policy.factor
                )
            )
        assert dyconit.get_state(-1).bounds == Bounds(1.0, 10.0)
