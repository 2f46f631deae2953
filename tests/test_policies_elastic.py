"""Unit tests for the elastic repartitioning policy."""

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, ChunkPartitioner
from repro.core.policy import LoadSignals
from repro.policies.adaptive import AdaptiveBoundsPolicy
from repro.policies.distance import DistanceBasedPolicy
from repro.policies.elastic import ElasticPartitioningPolicy
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber, columns_as_bounds, oracle_bounds, pair_table


def signals(now: float):
    return LoadSignals(
        now=now, player_count=5, last_tick_duration_ms=10.0,
        smoothed_tick_duration_ms=10.0, tick_budget_ms=50.0,
        outgoing_bytes_per_second=0.0,
    )


def move(entity_id=1, time=0.0, x=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(x, 0, 0), Vec3(x + 0.5, 0, 0))


@pytest.fixture
def setup():
    policy = ElasticPartitioningPolicy(
        inner=FixedBoundsPolicy(Bounds(100.0, 10_000.0)),
        region_size=4,
        cold_commits_per_second=1.0,
        hot_commits_per_second=8.0,
    )
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    rec = RecordingSubscriber()
    for cx in range(4):
        for cz in range(4):
            system.subscribe(("chunk", cx, cz), rec.subscriber)
    return system, policy, rec


def test_validation():
    with pytest.raises(ValueError):
        ElasticPartitioningPolicy(region_size=1)
    with pytest.raises(ValueError):
        ElasticPartitioningPolicy(cold_commits_per_second=5.0, hot_commits_per_second=5.0)


def test_cold_region_merges(setup):
    system, policy, __ = setup
    policy.evaluate(system, signals(0.0))  # baseline snapshot
    # One quiet second: a trickle of commits, well under the cold rate.
    system.commit(move(1, time=500.0, x=0.0))
    policy.evaluate(system, signals(1000.0))
    assert policy.merges >= 1
    assert system.is_merged(("chunk", 0, 0))
    assert system.get(("region", 4, 0, 0)) is not None


def test_busy_region_does_not_merge(setup):
    system, policy, __ = setup
    policy.evaluate(system, signals(0.0))
    for step in range(40):  # 40 commits in 1 s >> cold threshold
        system.commit(move(step % 5 + 1, time=step * 25.0, x=0.0))
    policy.evaluate(system, signals(1000.0))
    assert not system.is_merged(("chunk", 0, 0))


def test_hot_merged_region_splits(setup):
    system, policy, __ = setup
    policy.evaluate(system, signals(0.0))
    policy.evaluate(system, signals(1000.0))  # merges the idle region
    assert system.is_merged(("chunk", 0, 0))
    # Heat it up: many commits route to the merged dyconit.
    for step in range(40):
        system.commit(move(step % 5 + 1, time=1000.0 + step * 25.0, x=0.0))
    policy.evaluate(system, signals(2000.0))
    assert policy.splits >= 1
    assert not system.is_merged(("chunk", 0, 0))


def test_no_update_loss_across_merge_and_split(setup):
    system, policy, rec = setup
    policy.evaluate(system, signals(0.0))
    policy.evaluate(system, signals(1000.0))  # merge
    system.commit(move(1, time=1500.0, x=0.0))
    for step in range(40):
        system.commit(move(step % 5 + 1, time=1600.0 + step, x=0.0))
    policy.evaluate(system, signals(2000.0))  # split flushes the backlog
    # Everything committed was either delivered or is pending in the
    # released chunk dyconits; nothing vanished.
    pending = sum(
        len(state.pending)
        for dyconit in system.dyconits()
        for state in dyconit.subscription_states()
    )
    delivered = len(rec.delivered_updates)
    assert delivered + pending > 0
    assert delivered >= 1  # split force-flushed


def test_bounds_delegate_to_inner(setup):
    system, policy, rec = setup
    state = system.get(("chunk", 0, 0)).get_state(rec.subscriber.subscriber_id)
    assert state.bounds == Bounds(100.0, 10_000.0)


def test_repr_reports_activity(setup):
    __, policy, __ = setup
    assert "merges=0" in repr(policy)


@pytest.mark.parametrize(
    "inner",
    [DistanceBasedPolicy(), AdaptiveBoundsPolicy(), FixedBoundsPolicy(Bounds(3.0, 70.0))],
    ids=["distance", "adaptive", "fixed"],
)
def test_bounds_columns_delegate_the_table(inner):
    """Elastic hands the pair table (S36) to its inner policy whole: a
    merged region id, a non-spatial id and a missing position get the
    inner policy's bounds pair for pair, bit for bit."""
    policy = ElasticPartitioningPolicy(inner)
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    ids = [("chunk", 0, 0), ("region", 4, 0, 0), GLOBAL_DYCONIT, "not-spatial"]
    positions = [Vec3(8.0, 64.0, 8.0), Vec3(70.25, 64.0, -33.0), None]
    pairs = [(dyconit_id, position) for position in positions for dyconit_id in ids]
    table = pair_table(*zip(*pairs))
    expected = [oracle_bounds(inner, system, *pair) for pair in pairs]
    assert columns_as_bounds(policy.bounds_columns(system, table)) == expected
    assert columns_as_bounds(inner.bounds_columns(system, table)) == expected
