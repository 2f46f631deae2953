"""Unit tests for the DyconitSystem manager."""

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.policy import LoadSignals, Policy
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def make_system(clock, bounds=Bounds(10.0, 1000.0)) -> DyconitSystem:
    return DyconitSystem(FixedBoundsPolicy(bounds), ChunkPartitioner(), time_source=clock)


def move(entity_id=1, time=0.0, distance=1.0, x=0.0):
    return EntityMoveEvent(
        time=time,
        entity_id=entity_id,
        old_position=Vec3(x, 0, 0),
        new_position=Vec3(x + distance, 0, 0),
    )


def test_commit_routes_via_partitioner(clock):
    system = make_system(clock)
    dyconit_id = system.commit(move())
    assert dyconit_id == ("chunk", 0, 0)
    assert system.get(dyconit_id) is not None


def test_subscribe_uses_policy_initial_bounds(clock):
    system = make_system(clock, bounds=Bounds(7.0, 70.0))
    rec = RecordingSubscriber()
    state = system.subscribe("unit", rec.subscriber)
    assert state.bounds == Bounds(7.0, 70.0)


def test_explicit_bounds_override_policy(clock):
    system = make_system(clock)
    rec = RecordingSubscriber()
    state = system.subscribe("unit", rec.subscriber, bounds=Bounds.ZERO)
    assert state.bounds == Bounds.ZERO


def test_zero_bounds_deliver_immediately(clock):
    system = make_system(clock, bounds=Bounds.ZERO)
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())
    assert len(rec.delivered_updates) == 1
    assert system.stats.flushes_numerical == 1


def test_updates_queue_within_bounds(clock):
    system = make_system(clock, bounds=Bounds(10.0, 1000.0))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(distance=1.0))
    assert rec.delivered_updates == []


def test_numerical_bound_triggers_flush(clock):
    system = make_system(clock, bounds=Bounds(2.5, 1e9))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(1, distance=1.0))
    system.commit(move(2, distance=1.0))
    assert rec.delivered_updates == []
    system.commit(move(3, distance=1.0))  # error 3.0 > 2.5
    assert len(rec.delivered_updates) == 3
    assert system.stats.flushes_numerical == 1


def test_staleness_bound_triggers_flush_on_tick(clock):
    system = make_system(clock, bounds=Bounds(1e9, 200.0))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(time=0.0))
    clock.now = 100.0
    system.tick()
    assert rec.delivered_updates == []
    clock.now = 200.0
    assert system.tick() == 1
    assert len(rec.delivered_updates) == 1
    assert system.stats.flushes_staleness == 1


def test_merged_updates_deliver_only_newest(clock):
    system = make_system(clock, bounds=Bounds(2.5, 1e9))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(1, time=0.0, distance=1.0))
    system.commit(move(1, time=1.0, distance=1.0))
    system.commit(move(1, time=2.0, distance=1.0))  # 3.0 > 2.5 -> flush
    assert len(rec.delivered_updates) == 1
    assert rec.delivered_updates[0].time == 2.0
    assert system.stats.updates_merged == 2


def test_exclude_subscriber(clock):
    system = make_system(clock, bounds=Bounds.ZERO)
    alice, bob = RecordingSubscriber(1), RecordingSubscriber(2)
    system.subscribe(("chunk", 0, 0), alice.subscriber)
    system.subscribe(("chunk", 0, 0), bob.subscriber)
    system.commit(move(), exclude_subscriber=1)
    assert alice.delivered_updates == []
    assert len(bob.delivered_updates) == 1


def test_unsubscribe_flushes_pending_by_default(clock):
    system = make_system(clock, bounds=Bounds(100.0, 1e9))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())
    system.unsubscribe(("chunk", 0, 0), rec.subscriber.subscriber_id)
    assert len(rec.delivered_updates) == 1
    assert system.stats.flushes_forced == 1


def test_unsubscribe_can_drop_pending(clock):
    system = make_system(clock, bounds=Bounds(100.0, 1e9))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())
    system.unsubscribe(("chunk", 0, 0), rec.subscriber.subscriber_id, flush_pending=False)
    assert rec.delivered_updates == []


def test_remove_subscriber_cleans_all_memberships(clock):
    system = make_system(clock)
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.subscribe(("chunk", 1, 0), rec.subscriber)
    system.remove_subscriber(rec.subscriber.subscriber_id)
    assert system.subscriber_count == 0
    assert system.subscriptions_of(rec.subscriber.subscriber_id) == set()
    assert system.get(("chunk", 0, 0)).subscriber_count == 0


def test_subscription_ids_of_preserves_subscribe_order(clock):
    """Policies sweep a subscriber's subscriptions when it moves; the
    sweep order must be subscription order, not string-hash order."""
    system = make_system(clock)
    rec = RecordingSubscriber()
    ids = [("chunk", 2, 0), ("chunk", 0, 0), ("chunk", 1, 0), ("chunk", 0, 2)]
    for dyconit_id in ids:
        system.subscribe(dyconit_id, rec.subscriber)
    assert list(system.subscription_ids_of(rec.subscriber.subscriber_id)) == ids
    system.unsubscribe(("chunk", 0, 0), rec.subscriber.subscriber_id)
    assert list(system.subscription_ids_of(rec.subscriber.subscriber_id)) == [
        ("chunk", 2, 0), ("chunk", 1, 0), ("chunk", 0, 2)
    ]
    assert system.subscription_ids_of(999) == ()


def test_set_bounds_tightening_flushes_immediately(clock):
    system = make_system(clock, bounds=Bounds(100.0, 1e9))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(distance=5.0))
    system.set_bounds(("chunk", 0, 0), rec.subscriber.subscriber_id, Bounds(1.0, 1e9))
    assert len(rec.delivered_updates) == 1


def test_set_bounds_loosening_keeps_queue(clock):
    system = make_system(clock, bounds=Bounds(10.0, 1e9))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(distance=5.0))
    system.set_bounds(("chunk", 0, 0), rec.subscriber.subscriber_id, Bounds(100.0, 1e9))
    assert rec.delivered_updates == []


def test_staleness_deadline_follows_loosened_bound(clock):
    system = make_system(clock, bounds=Bounds(1e9, 100.0))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(time=0.0))
    system.set_bounds(("chunk", 0, 0), rec.subscriber.subscriber_id, Bounds(1e9, 500.0))
    clock.now = 150.0
    system.tick()
    assert rec.delivered_updates == []  # old 100 ms deadline is stale
    clock.now = 500.0
    system.tick()
    assert len(rec.delivered_updates) == 1


def test_flush_subscriber_and_flush_all(clock):
    system = make_system(clock, bounds=Bounds(1e9, 1e9))
    a, b = RecordingSubscriber(1), RecordingSubscriber(2)
    system.subscribe(("chunk", 0, 0), a.subscriber)
    system.subscribe(("chunk", 0, 0), b.subscriber)
    system.commit(move())
    system.flush_subscriber(1)
    assert len(a.delivered_updates) == 1 and b.delivered_updates == []
    system.flush_all()
    assert len(b.delivered_updates) == 1


def test_remove_dyconit_flushes(clock):
    system = make_system(clock, bounds=Bounds(1e9, 1e9))
    rec = RecordingSubscriber()
    system.subscribe("doomed", rec.subscriber)
    system.commit_to("doomed", move())
    system.remove_dyconit("doomed")
    assert len(rec.delivered_updates) == 1
    assert system.get("doomed") is None
    assert system.subscriptions_of(rec.subscriber.subscriber_id) == set()


def test_policy_evaluation_rate_limited(clock):
    class CountingPolicy(Policy):
        evaluation_period_ms = 1000.0

        def __init__(self):
            self.calls = 0

        def evaluate(self, system, signals):
            self.calls += 1

    policy = CountingPolicy()
    system = DyconitSystem(policy, time_source=clock)

    def signals(now):
        return LoadSignals(
            now=now, player_count=0, last_tick_duration_ms=0.0,
            smoothed_tick_duration_ms=0.0, tick_budget_ms=50.0,
            outgoing_bytes_per_second=0.0,
        )

    assert system.evaluate_policy(signals(0.0))
    assert not system.evaluate_policy(signals(500.0))
    assert system.evaluate_policy(signals(1000.0))
    assert policy.calls == 2


def test_stats_accounting(clock):
    system = make_system(clock, bounds=Bounds(0.5, 1e9))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(1))
    system.commit(move(2))
    stats = system.stats
    assert stats.commits == 2
    assert stats.updates_enqueued == 2
    assert stats.updates_delivered == 2
    assert stats.flushes == 2
    assert stats.subscriptions == 1


def test_duplicate_register_subscriber_rejected(clock):
    system = make_system(clock)
    rec = RecordingSubscriber()
    system.register_subscriber(rec.subscriber)
    with pytest.raises(ValueError):
        system.register_subscriber(rec.subscriber)


def test_commit_to_unsubscribed_dyconit_is_cheap(clock):
    system = make_system(clock)
    system.commit(move())
    assert system.stats.updates_enqueued == 0
    assert system.stats.commits == 1


def test_queue_delay_accounting(clock):
    system = make_system(clock, bounds=Bounds(1e9, 100.0))
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move(time=0.0))
    clock.now = 100.0
    system.tick()
    assert system.stats.mean_queue_delay_ms == pytest.approx(100.0)


def test_remove_merge_target_releases_its_aliases(clock):
    system = make_system(clock, bounds=Bounds.ZERO)
    rec = RecordingSubscriber()
    a, b, target = ("chunk", 0, 0), ("chunk", 1, 0), ("region", 0, 0)
    system.subscribe(a, rec.subscriber)
    system.merge_dyconits([a, b], target)
    assert system.is_merged(a) and system.is_merged(b)

    system.remove_dyconit(target)

    # The aliases died with the target...
    assert not system.is_merged(a)
    assert not system.is_merged(b)
    assert system.alias_count == 0
    assert system.resolve(a) == a
    # ...so a commit under a source id builds a fresh dyconit there
    # instead of resurrecting a subscriber-less ghost under the target.
    fresh = RecordingSubscriber(2)
    system.subscribe(a, fresh.subscriber)
    system.commit(move())
    assert len(fresh.delivered_updates) == 1
    assert system.get(a) is not None
    assert system.get(target) is None


def test_remove_merge_target_then_remerge_works(clock):
    system = make_system(clock, bounds=Bounds.ZERO)
    a, target = ("chunk", 0, 0), ("region", 0, 0)
    system.merge_dyconits([a], target)
    system.remove_dyconit(target)
    # Stale reverse-map entries would make this second merge corrupt
    # the alias maps; it must behave exactly like a first merge.
    system.merge_dyconits([a], target)
    assert system.resolve(a) == target
    system.split_dyconit(target)
    assert system.resolve(a) == a
    assert system.alias_count == 0
