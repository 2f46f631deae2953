"""Unit tests for the order-error (queue length) bound dimension."""

import math

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


def move(entity_id, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(0.1, 0, 0))


def test_order_defaults_to_unbounded():
    assert math.isinf(Bounds(1.0, 1.0).order)
    assert Bounds.INFINITE.is_infinite


def test_order_bound_validation():
    with pytest.raises(ValueError):
        Bounds(1.0, 1.0, order=-1)


def test_exceeded_by_order_dimension():
    bounds = Bounds(math.inf, math.inf, order=3)
    assert not bounds.exceeded_by(0.0, 0.0, pending_count=3)
    assert bounds.exceeded_by(0.0, 0.0, pending_count=4)


def test_order_scales():
    assert Bounds(1.0, 1.0, order=4).scaled(2.0).order == 8.0
    assert math.isinf(Bounds(1.0, 1.0).scaled(2.0).order)


def test_order_bound_flushes_on_distinct_updates():
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(math.inf, math.inf, order=2)), time_source=lambda: 0.0
    )
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(1))
    system.commit(move(2))
    assert rec.delivered_updates == []  # 2 distinct pending == bound
    system.commit(move(3))
    assert len(rec.delivered_updates) == 3


def test_merged_updates_do_not_count_against_order():
    """Order error counts *distinct* pending updates: repeated moves of
    one entity merge into a single queue entry."""
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(math.inf, math.inf, order=2)), time_source=lambda: 0.0
    )
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    for step in range(10):
        system.commit(move(1, time=float(step)))
    assert rec.delivered_updates == []


def test_clamp_includes_order():
    low = Bounds(0.0, 0.0, order=2)
    high = Bounds(10.0, 10.0, order=8)
    assert Bounds(5.0, 5.0, order=100).clamped(low, high).order == 8
    assert Bounds(5.0, 5.0, order=0).clamped(low, high).order == 2
