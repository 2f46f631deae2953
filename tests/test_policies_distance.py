"""Unit tests for the distance-based policy."""

import pickle
import random

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, ChunkPartitioner
from repro.policies import distance
from repro.policies.aoi import InterestCutoffPolicy
from repro.policies.distance import DistanceBasedPolicy
from repro.world.geometry import CHUNK_SIZE, Vec3

from tests.conftest import (
    RecordingSubscriber,
    columns_as_bounds,
    distance_bounds_at,
    oracle_bounds,
    pair_table,
)


def build(policy=None, position=Vec3(8.0, 30.0, 8.0)):
    policy = policy if policy is not None else DistanceBasedPolicy()
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    rec = RecordingSubscriber(position=position)
    return system, rec, policy


def test_own_chunk_gets_near_zero_bounds():
    system, rec, policy = build()  # avatar stands in chunk (0, 0)
    state = system.subscribe(("chunk", 0, 0), rec.subscriber)
    # The distance floor leaves a tiny bound nearby (staleness under one
    # tick, numerical sized to the rate budget for that window) so an
    # adaptive scale factor has something to loosen under overload.
    floor = distance_bounds_at(policy, policy.min_chunk_distance)
    assert state.bounds == floor
    assert state.bounds.staleness_ms <= 50.0
    assert state.bounds.numerical <= policy.numerical_weight_rate * 0.05


def test_bounds_grow_with_distance():
    system, rec, __ = build()
    near = system.subscribe(("chunk", 1, 0), rec.subscriber).bounds
    far = system.subscribe(("chunk", 4, 0), rec.subscriber).bounds
    assert near.numerical < far.numerical
    assert near.staleness_ms < far.staleness_ms


def subscribed_bounds_at(policy, chunk_distance):
    """The bounds ``policy`` gives a subscriber ``chunk_distance`` chunks
    (at least -0.5) from chunk (0, 0) when it subscribes to that chunk:
    the product's own path, ``subscribe`` through ``bounds_columns``. The
    position sits on the x axis, where the distance is exact."""
    position = Vec3(8.0 + CHUNK_SIZE * (chunk_distance + 0.5), 30.0, 8.0)
    system, rec, __ = build(policy, position)
    return system.subscribe(("chunk", 0, 0), rec.subscriber).bounds


def test_bound_surface_shape():
    policy = DistanceBasedPolicy(
        numerical_per_chunk=2.0,
        numerical_exponent=2.0,
        staleness_per_chunk_ms=100.0,
        numerical_weight_rate=250.0,
    )
    bounds = subscribed_bounds_at(policy, 3.0)
    # Numerical is the max of the distance surface (2 * 3^2 = 18) and the
    # rate budget (250/s * 0.3 s = 75): the rate budget wins here.
    assert bounds.numerical == pytest.approx(75.0)
    assert bounds.staleness_ms == pytest.approx(300.0)
    assert bounds == distance_bounds_at(policy, 3.0)


def test_bound_surface_distance_term_can_dominate():
    policy = DistanceBasedPolicy(
        numerical_per_chunk=2.0,
        numerical_exponent=2.0,
        staleness_per_chunk_ms=100.0,
        numerical_weight_rate=0.0,  # disable the rate budget
    )
    bounds = subscribed_bounds_at(policy, 3.0)
    assert bounds.numerical == pytest.approx(18.0)
    assert bounds.staleness_ms == pytest.approx(300.0)
    assert bounds == distance_bounds_at(policy, 3.0)


def test_numerical_bound_still_catches_bursts():
    """A mass block edit (weight >> rate budget) must flush immediately
    rather than wait out the staleness deadline."""
    policy = DistanceBasedPolicy()
    bounds = subscribed_bounds_at(policy, 2.0)
    assert bounds == distance_bounds_at(policy, 2.0)
    burst_weight = 500.0  # an explosion editing 500 blocks
    assert bounds.exceeded_by(burst_weight, oldest_age_ms=0.0)


def test_zero_distance_is_zero_bounds():
    # With no floor, a subscriber on the chunk's edge (distance 0) or on
    # its centre (distance -0.5) gets zero bounds ...
    policy = DistanceBasedPolicy(min_chunk_distance=0.0)
    assert subscribed_bounds_at(policy, 0.0).is_zero
    assert subscribed_bounds_at(policy, -0.5).is_zero
    # ... as the scalar formula says of any distance <= 0.
    assert distance_bounds_at(policy, 0.0).is_zero
    assert distance_bounds_at(policy, -1.0).is_zero


def test_global_dyconit_gets_chat_bounds():
    policy = DistanceBasedPolicy(global_bounds=Bounds(5.0, 250.0))
    system, rec, __ = build(policy)
    state = system.subscribe(GLOBAL_DYCONIT, rec.subscriber)
    assert state.bounds == Bounds(5.0, 250.0)


def test_subscriber_without_position_gets_global_bounds():
    policy = DistanceBasedPolicy()
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    rec = RecordingSubscriber()  # no position provider
    state = system.subscribe(("chunk", 3, 3), rec.subscriber)
    assert state.bounds == policy.global_bounds


def test_on_subscriber_moved_rederives_bounds():
    system, rec, policy = build()
    state = system.subscribe(("chunk", 4, 0), rec.subscriber)
    far_bounds = state.bounds
    # Teleport the avatar next to the dyconit and notify the policy.
    rec.subscriber.position_provider = lambda: Vec3(4 * 16 + 8.0, 30.0, 8.0)
    policy.on_subscriber_moved(system, rec.subscriber)
    assert state.bounds.numerical < far_bounds.numerical
    assert state.bounds == distance_bounds_at(policy, policy.min_chunk_distance)


def test_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        DistanceBasedPolicy(numerical_per_chunk=-1.0)
    with pytest.raises(ValueError):
        DistanceBasedPolicy(staleness_per_chunk_ms=-1.0)


def test_repr_mentions_surface():
    assert "d^2" in repr(DistanceBasedPolicy(numerical_exponent=2.0))


# ----------------------------------------------------------------------
# The cached column derivation ≡ the scalar formula, bit for bit
# ----------------------------------------------------------------------


def bounds_of_pairs(policy, system, dyconit_ids, positions) -> list[Bounds]:
    return columns_as_bounds(policy.bounds_columns(system, pair_table(dyconit_ids, positions)))


SPATIAL_IDS = [
    GLOBAL_DYCONIT,
    "not-spatial",
    ("chunk", 0, 0),
    ("chunk", -3, 7),
    ("chunk", 12, -9),
    ("region", 4, 0, 0),
    ("region", 4, -2, 1),
]


@pytest.mark.parametrize("exponent", [2.0, 1.7, 1.5])
def test_bounds_for_is_bit_identical_to_the_reference_derivation(exponent):
    """``bounds_columns`` equals :func:`tests.conftest.oracle_bounds` on
    every row, with the centroids parsed fresh and out of the cache."""
    rng = random.Random(1234)
    policy = DistanceBasedPolicy(numerical_exponent=exponent)
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    for __ in range(200):
        position = Vec3(
            rng.uniform(-300.0, 300.0), rng.uniform(0.0, 80.0), rng.uniform(-300.0, 300.0)
        )
        expected = [
            oracle_bounds(policy, system, dyconit_id, position) for dyconit_id in SPATIAL_IDS
        ]
        # Twice: the second answer comes out of the centroid cache.
        for __ in range(2):
            assert bounds_of_pairs(
                policy, system, SPATIAL_IDS, [position] * len(SPATIAL_IDS)
            ) == expected


@pytest.mark.parametrize("exponent", [0.0, -1.0, 2.0])
def test_zero_floor_gives_distance_zero_pairs_zero_bounds(exponent):
    """``min_chunk_distance=0``: pairs on (or within half a chunk of) a
    centroid are ``Bounds.ZERO`` — no ``0.0 ** exponent``, which raises
    for a negative exponent — and every pair of a table with repeated ids
    and positions equals the scalar formula."""
    policy = DistanceBasedPolicy(min_chunk_distance=0.0, numerical_exponent=exponent)
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    positions = [Vec3(8.0, 30.0, 8.0), Vec3(12.0, 30.0, 3.0), Vec3(-50.0, 30.0, 90.0), None]
    pairs = [(dyconit_id, position) for dyconit_id in SPATIAL_IDS for position in positions]
    expected = [oracle_bounds(policy, system, *pair) for pair in pairs]
    assert bounds_of_pairs(policy, system, *zip(*pairs)) == expected
    assert expected.count(Bounds.ZERO) == 2  # the first two positions on chunk (0, 0)


def test_sweep_reads_the_subscriber_position_once():
    for policy in (DistanceBasedPolicy(), InterestCutoffPolicy()):
        reads = []
        system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
        rec = RecordingSubscriber(position=Vec3(8.0, 30.0, 8.0))
        provider = rec.subscriber.position_provider
        rec.subscriber.position_provider = lambda: (reads.append(1), provider())[1]
        for cx in range(6):
            system.subscribe(("chunk", cx, 0), rec.subscriber)
        reads.clear()
        system.notify_subscriber_moved(rec.subscriber.subscriber_id)
        assert reads == [1], policy


def test_centroid_cache_is_bounded_and_stays_out_of_pickles(monkeypatch):
    monkeypatch.setattr(distance, "_CENTROID_CACHE_SIZE", 8)
    system, rec, policy = build()
    position = rec.subscriber.position
    expected = {
        cx: oracle_bounds(policy, system, ("chunk", cx, 0), position) for cx in range(20)
    }
    for cx in range(20):
        assert bounds_of_pairs(policy, system, [("chunk", cx, 0)], [position]) == [
            expected[cx]
        ]
        assert len(policy._centroids) <= 8
    clone = pickle.loads(pickle.dumps(policy))
    assert clone._centroids == {}
    assert bounds_of_pairs(clone, system, [("chunk", 3, 0)], [position]) == [expected[3]]
