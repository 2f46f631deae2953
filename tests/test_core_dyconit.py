"""Unit tests for the dyconit and its per-subscriber queues."""

import math

import pytest

from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit, SubscriptionState
from repro.core.subscription import Subscriber
from repro.world.block import BlockType
from repro.world.events import BlockChangeEvent, EntityMoveEvent
from repro.world.geometry import BlockPos, Vec3

from tests.conftest import PerObjectDyconit


def make_subscriber(subscriber_id=1):
    return Subscriber(subscriber_id=subscriber_id, deliver=lambda segments: None)


def move(entity_id=1, time=0.0, distance=1.0):
    return EntityMoveEvent(
        time=time,
        entity_id=entity_id,
        old_position=Vec3(0, 0, 0),
        new_position=Vec3(distance, 0, 0),
    )


def block(x=0, time=0.0, new=BlockType.STONE):
    return BlockChangeEvent(time, BlockPos(x, 10, 0), BlockType.AIR, new)


class TestSubscriptionState:
    def make_state(self, bounds=Bounds(10.0, 1000.0)) -> SubscriptionState:
        return SubscriptionState(subscriber=make_subscriber(), bounds=bounds)

    def test_enqueue_accumulates_error(self):
        state = self.make_state()
        state.enqueue(move(1, distance=2.0))
        state.enqueue(move(2, distance=3.0))
        assert state.accumulated_error == 5.0

    def test_merging_same_key(self):
        state = self.make_state()
        first = state.enqueue(move(1, time=0.0))
        second = state.enqueue(move(1, time=1.0))
        assert not first.superseded and second.superseded
        assert len(state.pending) == 1
        assert state.merged_count == 1

    def test_merging_keeps_error_conservative(self):
        """Error accumulates over every commit even when queue entries
        merge — the bound must never under-count inconsistency."""
        state = self.make_state()
        state.enqueue(move(1, distance=1.0))
        state.enqueue(move(1, distance=1.0))
        assert state.accumulated_error == 2.0

    def test_became_pending_flag(self):
        state = self.make_state()
        assert state.enqueue(move(1, time=5.0)).became_pending
        assert not state.enqueue(move(2, time=6.0)).became_pending

    def test_oldest_pending_time(self):
        state = self.make_state()
        state.enqueue(move(1, time=5.0))
        state.enqueue(move(2, time=9.0))
        assert state.oldest_pending_time == 5.0
        assert state.oldest_age_ms(now=15.0) == 10.0

    def test_no_merging_mode(self):
        state = self.make_state()
        state.merging = False
        state.enqueue(move(1, time=0.0))
        state.enqueue(move(1, time=1.0))
        assert len(state.pending) == 2
        assert state.merged_count == 0

    def test_drain_returns_commit_order_and_resets(self):
        state = self.make_state()
        state.enqueue(move(1, time=5.0))
        state.enqueue(move(2, time=9.0))
        drained = state.drain()
        assert [update.time for update in drained] == [5.0, 9.0]
        assert not state.has_pending
        assert state.accumulated_error == 0.0
        assert state.oldest_pending_time is None

    def test_merge_moves_survivor_to_commit_position(self):
        """A merged update re-enters the queue at its *new* commit position
        (delete-then-reinsert), so drain stays sorted without sorting."""
        state = self.make_state()
        state.enqueue(move(1, time=1.0))
        state.enqueue(move(2, time=2.0))
        state.enqueue(move(1, time=3.0))  # supersedes the time=1.0 entry
        drained = state.drain()
        assert [update.time for update in drained] == [2.0, 3.0]
        assert [update.entity_id for update in drained] == [2, 1]

    def test_restore_time_order_after_cross_queue_merge(self):
        """A dyconit merge can append a backlog that predates queued
        entries; restore_time_order re-establishes the drain invariant."""
        state = self.make_state()
        state.enqueue(move(1, time=7.0))
        state.enqueue(move(2, time=3.0))  # e.g. moved in from another queue
        state.restore_time_order()
        assert [update.time for update in state.drain()] == [3.0, 7.0]

    def test_exceeds_bounds_numerical(self):
        state = self.make_state(bounds=Bounds(1.5, 10_000.0))
        state.enqueue(move(1, distance=1.0))
        assert not state.exceeds_bounds(now=0.0)
        state.enqueue(move(2, distance=1.0))
        assert state.exceeds_bounds(now=0.0)

    def test_exceeds_bounds_staleness(self):
        state = self.make_state(bounds=Bounds(1000.0, 100.0))
        state.enqueue(move(1, time=0.0))
        assert not state.exceeds_bounds(now=50.0)
        assert state.exceeds_bounds(now=100.0)

    def test_empty_queue_never_exceeds(self):
        state = self.make_state(bounds=Bounds.ZERO)
        assert not state.exceeds_bounds(now=1e9)


class TestDyconit:
    """The product's columns; :class:`TestPerObjectDyconit` runs the same
    cases on the per-object reference."""

    make = Dyconit

    def test_subscribe_and_counts(self):
        dyconit = self.make("unit")
        dyconit.subscribe(make_subscriber(1))
        dyconit.subscribe(make_subscriber(2))
        assert dyconit.subscriber_count == 2
        assert dyconit.is_subscribed(1)

    def test_subscribe_is_idempotent_and_keeps_queue(self):
        dyconit = self.make("unit", default_bounds=Bounds(10.0, 1000.0))
        subscriber = make_subscriber(1)
        state = dyconit.subscribe(subscriber)
        dyconit.commit(move(1), None, 0.0)
        again = dyconit.subscribe(subscriber)
        assert again is state
        assert again.has_pending

    def test_resubscribe_can_update_bounds(self):
        dyconit = self.make("unit")
        subscriber = make_subscriber(1)
        dyconit.subscribe(subscriber, Bounds(1.0, 1.0))
        state = dyconit.subscribe(subscriber, Bounds(9.0, 9.0))
        assert state.bounds == Bounds(9.0, 9.0)

    def test_unsubscribe_returns_state(self):
        dyconit = self.make("unit", default_bounds=Bounds(10.0, 1000.0))
        dyconit.subscribe(make_subscriber(1))
        dyconit.commit(move(1), None, 0.0)
        state = dyconit.unsubscribe(1)
        assert state is not None and state.has_pending
        assert dyconit.unsubscribe(1) is None

    def test_commit_fans_out(self):
        dyconit = self.make("unit", default_bounds=Bounds(10.0, 1000.0))
        dyconit.subscribe(make_subscriber(1))
        dyconit.subscribe(make_subscriber(2))
        n_enqueued, n_merged, became_due, flushed = dyconit.commit(move(1), None, 0.0)
        assert (n_enqueued, n_merged, became_due, flushed) == (2, 0, 1000.0, None)
        assert all(state.has_pending for state in dyconit.subscription_states())

    def test_commit_excludes_originator(self):
        dyconit = self.make("unit", default_bounds=Bounds(10.0, 1000.0))
        dyconit.subscribe(make_subscriber(1))
        dyconit.subscribe(make_subscriber(2))
        assert dyconit.commit(move(1), 1, 0.0)[0] == 1
        assert [state.has_pending for state in dyconit.subscription_states()] == [False, True]

    def test_commit_tracks_hotness(self):
        dyconit = self.make("unit", default_bounds=Bounds(10.0, 1000.0))
        dyconit.subscribe(make_subscriber(1))
        dyconit.commit(move(1, distance=2.0), None, 0.0)
        dyconit.commit(block(), None, 0.0)
        assert dyconit.commit_count == 2
        assert dyconit.total_committed_weight == 3.0

    def test_hotness_ignores_commits_nobody_received(self):
        """A commit with no subscribers (or only the excluded originator)
        changed nobody's inconsistency and must not look hot to the
        policy — and both commit paths must agree on that."""
        dyconit = self.make("unit")
        assert dyconit.commit(move(1, distance=2.0), None, 0.0) == (0, 0, math.inf, None)
        assert dyconit.commit_count == 0
        assert dyconit.total_committed_weight == 0.0
        dyconit.subscribe(make_subscriber(1), Bounds(10.0, 1000.0))
        dyconit.commit(move(1, distance=2.0), 1, 0.0)
        assert dyconit.commit_count == 0
        assert dyconit.total_committed_weight == 0.0
        dyconit.commit(block(), None, 0.0)
        assert dyconit.commit_count == 1
        assert dyconit.total_committed_weight == 1.0

    def test_set_bounds_requires_subscription(self):
        dyconit = self.make("unit")
        with pytest.raises(KeyError):
            dyconit.set_bounds(1, Bounds.ZERO)

    def test_merging_flag_propagates_to_new_states(self):
        dyconit = self.make("unit", merging=False)
        state = dyconit.subscribe(make_subscriber(1))
        assert state.merging is False


class TestPerObjectDyconit(TestDyconit):
    make = PerObjectDyconit
