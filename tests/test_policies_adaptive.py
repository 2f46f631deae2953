"""Unit tests for the load-adaptive policy."""

import math
import random

import numpy as np
import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, ChunkPartitioner, centroid_of
from repro.core.policy import LoadSignals
from repro.policies.adaptive import AdaptiveBoundsPolicy
from repro.policies.distance import DistanceBasedPolicy
from repro.world.geometry import CHUNK_SIZE, Vec3

from tests.conftest import RecordingSubscriber, oracle_bounds, pair_table


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
    """A retune is one column write per dyconit (S23); what it installs
    must be the scalar formula of each pair, bit for bit, on the columnar
    and the row store alike, and peer subscriptions must stay untouched."""
    for state_store in ("memory", "sqlite"):
        policy = AdaptiveBoundsPolicy()
        system = DyconitSystem(
            policy, ChunkPartitioner(), time_source=lambda: 0.0, state_store=state_store
        )
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
                expected = oracle_bounds(policy, system, dyconit_id, subscriber.position)
                assert dyconit.get_state(subscriber.subscriber_id).bounds == expected, (
                    state_store
                )
                assert expected == oracle_bounds(
                    policy.shape, system, dyconit_id, subscriber.position
                ).scaled(policy.factor)
            assert dyconit.get_state(-1).bounds == Bounds(1.0, 10.0), state_store
        system.close()


# ----------------------------------------------------------------------
# The column derivation ≡ the scalar one, bit for bit
# ----------------------------------------------------------------------

SPATIAL_IDS = [
    GLOBAL_DYCONIT,
    "not-spatial",
    ("chunk", 0, 0),
    ("chunk", -3, 7),
    ("chunk", 12, -9),
    ("region", 4, -2, 1),
]

SHAPES = {
    "exponent-2": dict(numerical_exponent=2.0),
    "exponent-1.5": dict(numerical_exponent=1.5),
    "zero-floor": dict(min_chunk_distance=0.0),
    "infinite-global": dict(global_bounds=Bounds.INFINITE),
    # The distance term alone, and both terms winning in places.
    "rate-off": dict(numerical_weight_rate=0.0),
    "distance-heavy": dict(
        numerical_per_chunk=0.5,
        numerical_exponent=1.5,
        staleness_per_chunk_ms=40.0,
        numerical_weight_rate=30.0,
    ),
}


def bits(values) -> list[str]:
    return [float(value).hex() for value in values]


def random_positions() -> list[Vec3]:
    """Enough that ``np.power`` would round a few of the powers
    differently (see the trap test below)."""
    rng = random.Random(26)
    return [
        Vec3(rng.uniform(-300.0, 300.0), rng.uniform(0.0, 80.0), rng.uniform(-300.0, 300.0))
        for __ in range(2000)
    ]


def assert_columns_are(columns, expected: list[Bounds]) -> None:
    assert [bits(column) for column in columns] == [
        bits(bounds.numerical for bounds in expected),
        bits(bounds.staleness_ms for bounds in expected),
        bits(bounds.order for bounds in expected),
    ]


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES)
def test_bounds_columns_equal_bounds_for_bit_for_bit(shape):
    policy = AdaptiveBoundsPolicy(shape=DistanceBasedPolicy(**shape))
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    positions = random_positions()
    # On a centroid (distance 0: the floor, or Bounds.ZERO without one),
    # on chunk borders, and nowhere at all.
    for dyconit_id in SPATIAL_IDS:
        center = centroid_of(dyconit_id, system.partitioner)
        if center is not None:
            positions.append(Vec3(center.x, 30.0, center.z))
    positions += [Vec3(-16.0, 30.0, 0.0), Vec3(0.0, 30.0, -8.5), None]
    pairs = [(dyconit_id, position) for dyconit_id in SPATIAL_IDS for position in positions]
    random.Random(27).shuffle(pairs)
    dyconit_ids = [dyconit_id for dyconit_id, __ in pairs]
    pair_positions = [position for __, position in pairs]

    base = [
        oracle_bounds(policy.shape, system, dyconit_id, position) for dyconit_id, position in pairs
    ]
    table = pair_table(dyconit_ids, pair_positions)
    assert_columns_are(policy.shape.bounds_columns(system, table), base)
    if "min_chunk_distance" in shape:
        assert Bounds.ZERO in base
    for factor in (1.0, 0.4375, 3.7, 0.0):
        policy.factor = factor
        expected = [
            oracle_bounds(policy, system, dyconit_id, position) for dyconit_id, position in pairs
        ]
        assert_columns_are(policy.bounds_columns(system, table), expected)
        if "global_bounds" in shape:
            assert Bounds.INFINITE in expected  # not NaN, whatever the factor


@pytest.mark.parametrize("exponent", [2.0, 1.5])
def test_random_positions_reach_the_numpy_power_trap(exponent):
    """What the formula test's positions are for: ``np.power`` rounds
    some of their chunk distances' powers differently from ``**``."""
    system = DyconitSystem(
        DistanceBasedPolicy(numerical_exponent=exponent),
        ChunkPartitioner(),
        time_source=lambda: 0.0,
    )
    distances = []
    for position in random_positions():
        for dyconit_id in SPATIAL_IDS[2:]:
            center = centroid_of(dyconit_id, system.partitioner)
            dx, dz = position.x - center.x, position.z - center.z
            distances.append(max(0.25, math.sqrt(dx * dx + dz * dz) / CHUNK_SIZE - 0.5))
    powered = np.power(np.array(distances), exponent).tolist()
    assert any(c**exponent != p for c, p in zip(distances, powered))
