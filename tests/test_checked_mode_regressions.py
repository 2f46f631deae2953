"""Regression tests for the repartitioning bugs checked mode caught.

Four distinct bugs, each with the failure mode the invariant auditor (or
its fuzz harness) first exposed:

1. **Stale deadline on merge** — merging tightened an existing target
   subscription's bounds but only re-armed the deadline heap when the
   *source* had backlog, so the target's queue kept its old (later)
   deadline and flushed late.
2. **Elastic rate-accounting thrash** — the elastic policy diffed raw
   ``commit_count`` against baselines that were not carried through
   merge/split, so a freshly merged region's whole commit history read
   as one window of traffic and the region split right back (thrash).
3. **Flush-reason misattribution** — the commit/set_bounds flush paths
   classified every non-numerical flush as "staleness", so order-bound
   trips were invisible in the stats.
4. **Re-subscribe bypasses the bound re-check** — re-subscribing (the
   interest-refresh path) overwrote the bounds without the immediate
   re-check/deadline re-push that ``set_bounds`` performs.
"""

import math

import pytest

from repro.core.bounds import Bounds
from repro.core.invariants import InvariantAuditor
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.policy import LoadSignals
from repro.policies.elastic import ElasticPartitioningPolicy
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


def move(entity_id=1, time=0.0, x=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(x, 0, 0), Vec3(x + 1, 0, 0))


CHUNK_A = ("chunk", 0, 0)
CHUNK_B = ("chunk", 1, 0)
MERGED = ("region", 4, 0, 0)


@pytest.fixture
def clock():
    return {"now": 0.0}


@pytest.fixture
def system(clock):
    return DyconitSystem(
        FixedBoundsPolicy(Bounds(math.inf, math.inf)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
    )


# ----------------------------------------------------------------------
# Bug 1 — merge tightens target bounds without re-arming the deadline
# ----------------------------------------------------------------------


def test_merge_tightened_bounds_rearm_deadline(system, clock):
    rec = RecordingSubscriber()
    # Target: loose staleness, with a queued backlog (deadline at 10 s).
    system.subscribe(CHUNK_B, rec.subscriber, bounds=Bounds(math.inf, 10_000.0))
    system.commit_to(CHUNK_B, move(1, time=0.0))
    # Source: tight staleness, *nothing pending* — the buggy path only
    # re-pushed a deadline when the source brought backlog along.
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, 100.0))
    system.merge_dyconits([CHUNK_A], CHUNK_B)

    state = system.get(CHUNK_B).get_state(rec.subscriber.subscriber_id)
    assert state.bounds.staleness_ms == 100.0  # tightest-wins held even before

    # The heap must now cover the 100 ms deadline (I3), not just 10 s.
    assert InvariantAuditor().check(system) == []

    # Behavioural proof: the backlog flushes once 100 ms have passed,
    # not at the stale 10 s deadline.
    clock["now"] = 200.0
    flushed = system.tick()
    assert flushed == 1
    assert rec.delivered_updates


def test_merge_moved_older_backlog_ages_from_true_oldest(system, clock):
    rec = RecordingSubscriber()
    # Target queue pends since t=400; source queue pends since t=0.
    system.subscribe(CHUNK_B, rec.subscriber, bounds=Bounds(math.inf, 1000.0))
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, 1000.0))
    clock["now"] = 400.0
    system.commit_to(CHUNK_B, move(1, time=400.0))
    system.commit_to(CHUNK_A, move(2, time=0.0, x=16.0))
    system.merge_dyconits([CHUNK_A], CHUNK_B)
    state = system.get(CHUNK_B).get_state(rec.subscriber.subscriber_id)
    # Staleness must age from the moved backlog's t=0 head, not t=400.
    assert state.oldest_pending_time == 0.0
    assert InvariantAuditor().check(system) == []
    clock["now"] = 1000.0
    assert system.tick() == 1  # due at 0 + 1000, not 400 + 1000


# ----------------------------------------------------------------------
# Bug 2 — elastic baseline accounting across merge/split
# ----------------------------------------------------------------------


def signals(now: float):
    return LoadSignals(
        now=now, player_count=5, last_tick_duration_ms=10.0,
        smoothed_tick_duration_ms=10.0, tick_budget_ms=50.0,
        outgoing_bytes_per_second=0.0,
    )


def test_quiet_merged_region_stays_merged(clock):
    policy = ElasticPartitioningPolicy(
        inner=FixedBoundsPolicy(Bounds(1000.0, 60_000.0)),
        region_size=4,
        cold_commits_per_second=1.0,
        hot_commits_per_second=8.0,
    )
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: clock["now"])
    rec = RecordingSubscriber()
    for cx in range(2):
        system.subscribe(("chunk", cx, 0), rec.subscriber)

    # Window 1: busy — both chunks accumulate a large commit history.
    policy.evaluate(system, signals(0.0))  # baseline snapshot
    for step in range(30):
        t = step * 30.0
        clock["now"] = t
        system.commit_to(CHUNK_A, move(1, time=t))
        system.commit_to(CHUNK_B, move(2, time=t, x=16.0))
    clock["now"] = 1000.0
    policy.evaluate(system, signals(1000.0))  # 60/s — far too hot to merge
    assert policy.merges == 0

    # Window 2: silence — the region merges.
    clock["now"] = 2000.0
    policy.evaluate(system, signals(2000.0))
    assert policy.merges == 1
    assert system.is_merged(CHUNK_A)

    # Windows 3 and 4: still silent. The merged dyconit's commit counter
    # carries the whole pre-merge history (60 commits); without baseline
    # carry the policy reads that as 60 commits/s of fresh traffic and
    # splits the region right back — merge/split thrash on a dead region.
    for window_end in (3000.0, 4000.0):
        clock["now"] = window_end
        policy.evaluate(system, signals(window_end))
        assert policy.splits == 0
        assert system.is_merged(CHUNK_A)
        assert system.get(MERGED) is not None


def test_split_region_rates_restart_from_zero(clock):
    policy = ElasticPartitioningPolicy(
        inner=FixedBoundsPolicy(Bounds(1000.0, 60_000.0)),
        region_size=4,
        cold_commits_per_second=1.0,
        hot_commits_per_second=8.0,
    )
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: clock["now"])
    rec = RecordingSubscriber()
    for cx in range(2):
        system.subscribe(("chunk", cx, 0), rec.subscriber)
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)

    policy.evaluate(system, signals(0.0))  # baseline snapshot
    # Window 1: hot — the region splits.
    for step in range(20):
        t = step * 50.0
        clock["now"] = t
        system.commit_to(CHUNK_A, move(1, time=t))
    clock["now"] = 1000.0
    policy.evaluate(system, signals(1000.0))
    assert policy.splits == 1
    assert not system.is_merged(CHUNK_A)

    # Window 2: a modest trickle on the released chunks. Their counters
    # restarted at zero; a stale baseline (or a leftover region baseline
    # gone negative) would misprice these rates and re-thrash.
    for step in range(3):
        t = 1000.0 + step * 200.0
        clock["now"] = t
        system.commit_to(CHUNK_A, move(1, time=t))
    clock["now"] = 2000.0
    policy.evaluate(system, signals(2000.0))
    assert policy.last_window_rates[CHUNK_A] == pytest.approx(3.0)
    assert all(rate >= 0.0 for rate in policy.last_window_rates.values())


# ----------------------------------------------------------------------
# Bug 3 — flush reason must name the dimension that tripped
# ----------------------------------------------------------------------


def test_order_bound_flush_reported_as_order(system):
    rec = RecordingSubscriber()
    system.subscribe(
        CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, math.inf, order=2)
    )
    system.commit_to(CHUNK_A, move(1, time=0.0))
    system.commit_to(CHUNK_A, move(2, time=0.0, x=2.0))
    assert system.stats.flushes == 0
    system.commit_to(CHUNK_A, move(3, time=0.0, x=4.0))  # 3 pending > order 2
    assert system.stats.flushes == 1
    assert system.stats.flushes_order == 1
    # The old code filed this under "staleness" — with an *infinite*
    # staleness bound, poisoning the per-reason breakdown E-tables use.
    assert system.stats.flushes_staleness == 0
    assert system.stats.as_dict()["flushes_order"] == 1


def test_set_bounds_order_trip_reported_as_order(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, math.inf))
    system.commit_to(CHUNK_A, move(1, time=0.0))
    system.commit_to(CHUNK_A, move(2, time=0.0, x=2.0))
    system.set_bounds(
        CHUNK_A, rec.subscriber.subscriber_id, Bounds(math.inf, math.inf, order=1)
    )
    assert system.stats.flushes_order == 1
    assert system.stats.flushes_staleness == 0


def test_numerical_keeps_precedence_over_staleness(system, clock):
    # Zero bounds: both dimensions exceeded at once; numerical must win
    # (test_zero_bounds_middleware_never_merges depends on this).
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds.ZERO)
    system.commit_to(CHUNK_A, move(1, time=0.0))
    assert system.stats.flushes_numerical == 1
    assert system.stats.flushes_staleness == 0


# ----------------------------------------------------------------------
# Bug 4 — re-subscribe must re-check bounds like set_bounds does
# ----------------------------------------------------------------------


def test_resubscribe_tighter_staleness_rearms_deadline(system, clock):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, 10_000.0))
    system.commit_to(CHUNK_A, move(1, time=0.0))
    # Interest refresh re-subscribes with tighter bounds (e.g. the player
    # moved closer). The old path overwrote state.bounds and returned.
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, 100.0))
    assert InvariantAuditor().check(system) == []
    clock["now"] = 200.0
    assert system.tick() == 1
    assert rec.delivered_updates


def test_resubscribe_already_exceeded_flushes_immediately(system, clock):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, 10_000.0))
    system.commit_to(CHUNK_A, move(1, time=0.0))
    clock["now"] = 500.0
    # The backlog is already 500 ms old; a 100 ms promise cannot wait for
    # the next tick.
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, 100.0))
    assert rec.delivered_updates
    assert system.stats.flushes_staleness == 1


def test_resubscribe_same_bounds_is_noop(system):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(5.0, 1000.0))
    system.commit_to(CHUNK_A, move(1, time=0.0))
    checks_before = system.stats.bound_checks
    due_before = dict(system._due_at)
    state = system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(5.0, 1000.0))
    assert state.has_pending  # queue untouched
    assert system.stats.bound_checks == checks_before  # no redundant re-check
    assert system._due_at == due_before
