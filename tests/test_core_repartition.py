"""Unit tests for runtime dyconit merging and splitting."""

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


def move(entity_id=1, time=0.0, x=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(x, 0, 0), Vec3(x + 1, 0, 0))


@pytest.fixture
def system():
    return DyconitSystem(
        FixedBoundsPolicy(Bounds(10.0, 1000.0)), ChunkPartitioner(), time_source=lambda: 0.0
    )


CHUNK_A = ("chunk", 0, 0)
CHUNK_B = ("chunk", 1, 0)
MERGED = ("region", 4, 0, 0)


def test_merge_moves_subscriptions(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.subscribe(CHUNK_B, rec.subscriber)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    assert system.get(CHUNK_A) is None
    assert system.get(MERGED).is_subscribed(rec.subscriber.subscriber_id)
    assert system.subscriptions_of(rec.subscriber.subscriber_id) == {MERGED}
    assert system.is_merged(CHUNK_A)
    assert system.alias_count == 2


def test_commits_to_merged_source_route_to_target(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    # Event in chunk (0, 0) routes via the partitioner to CHUNK_A, which
    # is now an alias of MERGED.
    system.commit(move(1, x=0.0))
    state = system.get(MERGED).get_state(rec.subscriber.subscriber_id)
    assert state.has_pending


def test_merge_takes_tightest_bounds(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(2.0, 900.0))
    system.subscribe(CHUNK_B, rec.subscriber, bounds=Bounds(8.0, 100.0))
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    state = system.get(MERGED).get_state(rec.subscriber.subscriber_id)
    assert state.bounds.numerical == 2.0
    assert state.bounds.staleness_ms == 100.0


def test_merge_preserves_pending_updates(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, time=1.0))
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    state = system.get(MERGED).get_state(rec.subscriber.subscriber_id)
    assert len(state.pending) == 1


def test_merge_is_idempotent_for_same_target(system):
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)  # aliases resolve; no-op
    assert system.alias_count == 2


def test_split_restores_routing(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    released = system.split_dyconit(MERGED)
    assert set(released) == {CHUNK_A, CHUNK_B}
    assert not system.is_merged(CHUNK_A)
    assert system.get(MERGED) is None
    # Subscribers stayed subscribed to the released ids: no update loss.
    assert system.get(CHUNK_A).is_subscribed(rec.subscriber.subscriber_id)
    assert system.get(CHUNK_B).is_subscribed(rec.subscriber.subscriber_id)
    system.commit(move(1, x=0.0))
    state = system.get(CHUNK_A).get_state(rec.subscriber.subscriber_id)
    assert state.has_pending


def test_split_flushes_target_backlog(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    system.commit(move(1, x=0.0))
    system.split_dyconit(MERGED)
    assert len(rec.delivered_updates) == 1


def test_merge_then_subscribe_via_source_id(system):
    """Subscribing through a merged source id lands on the target."""
    rec = RecordingSubscriber()
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    system.subscribe(CHUNK_A, rec.subscriber)
    assert system.subscriptions_of(rec.subscriber.subscriber_id) == {MERGED}


def test_alias_cycle_detected(system):
    system._aliases[CHUNK_A] = CHUNK_B
    system._aliases[CHUNK_B] = CHUNK_A
    with pytest.raises(RuntimeError):
        system.resolve(CHUNK_A)


def test_merge_accumulates_hotness(system):
    # Hotness only counts commits somebody received (subscriber-less
    # commits change nobody's inconsistency), so subscribe first.
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.subscribe(CHUNK_B, rec.subscriber)
    system.commit_to(CHUNK_A, move(1))
    system.commit_to(CHUNK_B, move(2))
    target = system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    assert target.commit_count == 2


def test_split_releases_only_its_own_sources(system):
    """The reverse alias map keeps split O(sources of that target): other
    targets' aliases are untouched and still resolve."""
    other = ("region", 4, 9, 9)
    chunk_c, chunk_d = ("chunk", 8, 8), ("chunk", 9, 8)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    system.merge_dyconits([chunk_c, chunk_d], other)
    released = system.split_dyconit(MERGED)
    assert released == [CHUNK_A, CHUNK_B]  # merge order preserved
    assert system.alias_count == 2
    assert system.is_merged(chunk_c) and system.is_merged(chunk_d)
    assert system.resolve(chunk_c) == other


def test_split_after_chained_merge_releases_direct_sources(system):
    """Merging a merged target into a third unit: splitting the outer
    target releases the inner target (its only *direct* source), whose
    own aliases keep routing through it."""
    outer = ("region", 8, 0, 0)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    system.merge_dyconits([MERGED], outer)
    released = system.split_dyconit(outer)
    assert released == [MERGED]
    assert system.resolve(CHUNK_A) == MERGED  # inner aliases survive
    assert not system.is_merged(MERGED)


def test_split_without_merge_is_noop(system):
    assert system.split_dyconit(MERGED) == []


def test_merge_out_of_order_backlogs_flush_in_time_order(system):
    """Backlogs moved across queues by a merge predate the target's own
    pending updates; the flush must still deliver in commit-time order."""
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.subscribe(CHUNK_B, rec.subscriber)
    system.commit_to(CHUNK_B, move(2, time=1.0))
    system.commit_to(CHUNK_A, move(1, time=2.0))
    # Merge A first so its (newer) backlog lands on the target before
    # B's older one.
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    system.flush(MERGED, rec.subscriber.subscriber_id)
    assert [update.time for update in rec.delivered_updates] == [1.0, 2.0]


@pytest.mark.parametrize("state_store", ["memory", "per-object", "sqlite"])
def test_merge_flushes_a_backlog_it_puts_over_the_bound(state_store):
    """Two backlogs of error 4 under a numerical bound of 5 merge into one
    of error 8: the merge flushes it at once, reason numerical, as
    ``set_bounds`` would — not at the next commit into the target or at
    its 10 s staleness deadline."""
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(5.0, 10_000.0)),
        ChunkPartitioner(),
        time_source=lambda: 0.0,
        state_store=state_store,
    )
    rec = RecordingSubscriber()
    for entity_id, dyconit_id in enumerate(("A", "B"), start=1):
        system.subscribe(dyconit_id, rec.subscriber)
        system.commit_to(
            dyconit_id, EntityMoveEvent(0.0, entity_id, Vec3(0, 0, 0), Vec3(4, 0, 0))
        )
    assert rec.delivered_updates == []
    checks = system.stats.bound_checks
    system.merge_dyconits(["A"], "B")
    assert len(rec.delivered_updates) == 2
    assert rec.deliveries[0][0] == "B"
    assert (system.stats.flushes, system.stats.flushes_numerical) == (1, 1)
    assert system.stats.bound_checks == checks + 1
    assert not system.get("B").get_state(rec.subscriber.subscriber_id).has_pending
    system.close()


def test_merge_flushes_a_backlog_its_tightened_order_bound_trips(system):
    """The target's own backlog of two updates meets a source bound with
    order 1: the tightened bound trips it, reason order, at the merge."""
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(10.0, 1000.0, order=1.0))
    system.subscribe(MERGED, rec.subscriber)
    system.commit_to(MERGED, move(1))
    system.commit_to(MERGED, move(2))
    assert rec.delivered_updates == []
    system.merge_dyconits([CHUNK_A], MERGED)
    assert len(rec.delivered_updates) == 2
    assert system.stats.flushes_order == 1
    state = system.get(MERGED).get_state(rec.subscriber.subscriber_id)
    assert state.bounds == Bounds(10.0, 1000.0, order=1.0)
