"""Unit tests for the AOI cutoff policy."""

import random

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, ChunkPartitioner
from repro.policies.aoi import InterestCutoffPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber, columns_as_bounds, oracle_bounds, pair_table


def build(radius=2.0, position=Vec3(8.0, 30.0, 8.0)):
    policy = InterestCutoffPolicy(aoi_radius_chunks=radius)
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    rec = RecordingSubscriber(position=position)
    return system, rec, policy


def test_inside_aoi_is_zero_bounds():
    system, rec, __ = build()
    state = system.subscribe(("chunk", 1, 0), rec.subscriber)
    assert state.bounds.is_zero


def test_outside_aoi_is_infinite():
    system, rec, __ = build()
    state = system.subscribe(("chunk", 5, 0), rec.subscriber)
    assert state.bounds.is_infinite


def test_chat_always_delivered():
    system, rec, __ = build()
    state = system.subscribe(GLOBAL_DYCONIT, rec.subscriber)
    assert state.bounds.is_zero


def test_updates_outside_aoi_are_suppressed():
    system, rec, __ = build()
    system.subscribe(("chunk", 5, 0), rec.subscriber)
    system.commit(
        EntityMoveEvent(0.0, 9, Vec3(5 * 16, 30, 0), Vec3(5 * 16 + 1, 30, 0))
    )
    assert rec.delivered_updates == []


def test_approach_flushes_backlog():
    """Walking toward a suppressed area catches the player up."""
    system, rec, policy = build()
    system.subscribe(("chunk", 5, 0), rec.subscriber)
    system.commit(
        EntityMoveEvent(0.0, 9, Vec3(5 * 16, 30, 0), Vec3(5 * 16 + 1, 30, 0))
    )
    rec.subscriber.position_provider = lambda: Vec3(5 * 16 + 8.0, 30.0, 8.0)
    policy.on_subscriber_moved(system, rec.subscriber)
    assert len(rec.delivered_updates) == 1


def test_rejects_negative_radius():
    with pytest.raises(ValueError):
        InterestCutoffPolicy(aoi_radius_chunks=-1.0)


def test_repr_mentions_radius():
    assert "2.0" in repr(InterestCutoffPolicy(2.0))


@pytest.mark.parametrize("radius", [2.0, 0.0, 3.25])
def test_bounds_columns_equal_bounds_for(radius):
    """The column (S33, S35) equals :func:`tests.conftest.oracle_bounds`
    row for row, bit for bit: on 2 000 random positions, on the cutoff
    exactly, on centroids, for global and non-spatial ids and for a
    subscriber with no position."""
    system, __, policy = build(radius=radius)
    rng = random.Random(33)
    positions = [
        Vec3(rng.uniform(-200.0, 200.0), rng.uniform(0.0, 80.0), rng.uniform(-200.0, 200.0))
        for __ in range(2000)
    ]
    edge = (radius + 0.5) * 16
    positions += [Vec3(8.0 + edge, 30.0, 8.0), Vec3(8.0, 30.0, 8.0 - edge), Vec3(8.0, 0.0, 8.0)]
    positions.append(None)
    ids = [GLOBAL_DYCONIT, "not-spatial", ("chunk", 0, 0), ("chunk", -3, 7), ("region", 4, -2, 1)]
    pairs = [(dyconit_id, position) for dyconit_id in ids for position in positions]
    rng.shuffle(pairs)
    expected = [
        oracle_bounds(policy, system, dyconit_id, position) for dyconit_id, position in pairs
    ]
    columns = policy.bounds_columns(
        system,
        pair_table([dyconit_id for dyconit_id, __ in pairs], [position for __, position in pairs]),
    )
    assert columns_as_bounds(columns) == expected
    assert Bounds.ZERO in expected and Bounds.INFINITE in expected
    on_edge = [
        bounds
        for (dyconit_id, position), bounds in zip(pairs, expected)
        if dyconit_id == ("chunk", 0, 0) and position is not None and position.x == 8.0 + edge
    ]
    assert on_edge == [Bounds.ZERO]
