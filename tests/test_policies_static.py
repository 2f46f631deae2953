"""Unit tests for the static policies (zero, infinite, fixed)."""

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT
from repro.policies.fixed import DEFAULT_FIXED_BOUNDS, FixedBoundsPolicy
from repro.policies.infinite import InfiniteBoundsPolicy
from repro.policies.zero import ZeroBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber, columns_as_bounds, oracle_bounds, pair_table


def move(entity_id=1, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


def build_system(policy):
    return DyconitSystem(policy, time_source=lambda: 0.0)


class TestZeroBounds:
    def test_initial_bounds_are_zero(self):
        system = build_system(ZeroBoundsPolicy())
        rec = RecordingSubscriber()
        state = system.subscribe("unit", rec.subscriber)
        assert state.bounds.is_zero

    def test_every_commit_delivers_immediately(self):
        system = build_system(ZeroBoundsPolicy())
        rec = RecordingSubscriber()
        system.subscribe(("chunk", 0, 0), rec.subscriber)
        for index in range(5):
            system.commit(move(entity_id=index + 1))
        assert len(rec.delivered_updates) == 5
        assert system.stats.updates_merged == 0


class TestInfiniteBounds:
    def test_initial_bounds_are_infinite(self):
        system = build_system(InfiniteBoundsPolicy())
        rec = RecordingSubscriber()
        state = system.subscribe("unit", rec.subscriber)
        assert state.bounds.is_infinite

    def test_nothing_is_ever_delivered(self):
        system = build_system(InfiniteBoundsPolicy())
        rec = RecordingSubscriber()
        system.subscribe(("chunk", 0, 0), rec.subscriber)
        for index in range(100):
            system.commit(move(entity_id=index % 3 + 1, time=float(index)))
        system.tick()
        assert rec.delivered_updates == []

    def test_merging_still_caps_queue_size(self):
        system = build_system(InfiniteBoundsPolicy())
        rec = RecordingSubscriber()
        system.subscribe(("chunk", 0, 0), rec.subscriber)
        for index in range(100):
            system.commit(move(entity_id=1, time=float(index)))
        state = system.get(("chunk", 0, 0)).get_state(rec.subscriber.subscriber_id)
        assert len(state.pending) == 1
        assert system.stats.updates_merged == 99

    def test_forced_flush_still_works(self):
        system = build_system(InfiniteBoundsPolicy())
        rec = RecordingSubscriber()
        system.subscribe(("chunk", 0, 0), rec.subscriber)
        system.commit(move())
        system.flush_subscriber(rec.subscriber.subscriber_id)
        assert len(rec.delivered_updates) == 1


class TestFixedBounds:
    def test_default_bounds(self):
        policy = FixedBoundsPolicy()
        system = build_system(policy)
        rec = RecordingSubscriber()
        state = system.subscribe("unit", rec.subscriber)
        assert state.bounds == DEFAULT_FIXED_BOUNDS

    def test_custom_bounds_apply_uniformly(self):
        bounds = Bounds(3.0, 333.0)
        system = build_system(FixedBoundsPolicy(bounds))
        rec = RecordingSubscriber()
        for dyconit_id in ("a", "b", ("chunk", 5, 5)):
            state = system.subscribe(dyconit_id, rec.subscriber)
            assert state.bounds == bounds

    def test_repr_shows_bounds(self):
        assert "3.0" in repr(FixedBoundsPolicy(Bounds(3.0, 1.0)))


@pytest.mark.parametrize(
    "policy",
    [ZeroBoundsPolicy(), InfiniteBoundsPolicy(), FixedBoundsPolicy(Bounds(3.0, 70.0, 2.0))],
    ids=["zero", "infinite", "fixed"],
)
def test_constant_columns_cover_every_pair_of_a_table(policy):
    """A retune-shaped pair table (S36) — ids repeated across positions,
    one position missing — gets the policy's one bound on every pair."""
    system = build_system(policy)
    ids = [("chunk", 0, 0), ("chunk", 1, 0), GLOBAL_DYCONIT]
    positions = [Vec3(8.0, 64.0, 8.0), None, Vec3(-40.0, 64.0, 3.0)]
    pairs = [(dyconit_id, position) for position in positions for dyconit_id in ids]
    table = pair_table(*zip(*pairs))
    assert len(table) == 9 and len(table.dyconit_ids) == 3
    assert columns_as_bounds(policy.bounds_columns(system, table)) == [
        oracle_bounds(policy, system, *pair) for pair in pairs
    ]
