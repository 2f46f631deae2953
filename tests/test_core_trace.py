"""Unit tests for middleware decision tracing."""

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, ChunkPartitioner
from repro.core.policy import LoadSignals, Policy
from repro.core.trace import DyconitTracer, TraceEvent
from repro.policies.adaptive import AdaptiveBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


class P(Policy):
    def initial_bounds(self, system, dyconit_id, subscriber):
        return Bounds(0.5, 1e9)


def overload() -> LoadSignals:
    return LoadSignals(
        now=0.0,
        player_count=2,
        last_tick_duration_ms=100.0,
        smoothed_tick_duration_ms=100.0,
        tick_budget_ms=50.0,
        outgoing_bytes_per_second=0.0,
    )


def move(entity_id=1, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


def make_traced_system():
    system = DyconitSystem(P(), time_source=lambda: 0.0)
    system.tracer = DyconitTracer(capacity=100)
    return system


def test_flush_is_traced_with_reason():
    system = make_traced_system()
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())
    flushes = system.tracer.events(kind="flush")
    assert len(flushes) == 1
    assert "reason=numerical" in flushes[0].detail
    assert flushes[0].subscriber_id == rec.subscriber.subscriber_id


def test_bounds_change_is_traced():
    system = make_traced_system()
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.set_bounds(("chunk", 0, 0), rec.subscriber.subscriber_id, Bounds(9.0, 90.0))
    events = system.tracer.events(kind="bounds")
    assert len(events) == 1
    assert "numerical=9" in events[0].detail


def test_retune_pass_traces_each_rewritten_pair_as_set_bounds_would():
    """The column retune (S23) writes no bound through ``set_bounds`` yet
    records one ``bounds`` event per client pair it rewrites, with the
    detail ``set_bounds`` would give those bounds; peers get none."""
    policy = AdaptiveBoundsPolicy()
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    system.tracer = DyconitTracer(capacity=100)
    clients = [
        RecordingSubscriber(1, position=Vec3(8.0, 30.0, 8.0)).subscriber,
        RecordingSubscriber(2, position=Vec3(-40.0, 30.0, 21.5)).subscriber,
    ]
    peer = RecordingSubscriber(-1).subscriber
    peer.kind = "peer"
    ids = [("chunk", cx, 0) for cx in range(3)] + [GLOBAL_DYCONIT]
    for dyconit_id in ids:
        for subscriber in (*clients, peer):
            system.subscribe(dyconit_id, subscriber)
    policy.evaluate(system, overload())
    retuned = sorted(
        (repr(event.dyconit_id), event.subscriber_id, event.detail)
        for event in system.tracer.events(kind="bounds")
    )
    assert len(retuned) == len(ids) * len(clients)
    for dyconit_id in ids:
        for subscriber in clients:
            state = system.get(dyconit_id).get_state(subscriber.subscriber_id)
            system.set_bounds(dyconit_id, subscriber.subscriber_id, state.bounds)
    by_set_bounds = sorted(
        (repr(event.dyconit_id), event.subscriber_id, event.detail)
        for event in system.tracer.events(kind="bounds")[len(retuned):]
    )
    assert retuned == by_set_bounds


def test_merge_and_split_are_traced():
    system = make_traced_system()
    system.merge_dyconits([("chunk", 0, 0), ("chunk", 1, 0)], ("region", 4, 0, 0))
    system.split_dyconit(("region", 4, 0, 0))
    assert system.tracer.counts["merge"] == 2
    assert system.tracer.counts["split"] == 2


def test_ring_buffer_caps_memory():
    tracer = DyconitTracer(capacity=5)
    for index in range(20):
        tracer.record(float(index), "flush", "d")
    assert len(tracer) == 5
    assert tracer.counts["flush"] == 20  # counters keep the full total
    assert [event.time for event in tracer] == [15.0, 16.0, 17.0, 18.0, 19.0]


def test_ring_buffer_wraparound_interleaved_kinds():
    """Eviction is strictly oldest-first even when kinds interleave, and
    the per-kind counters keep full totals after overflow."""
    tracer = DyconitTracer(capacity=4)
    kinds = ["flush", "bounds", "flush", "merge", "flush", "split", "bounds"]
    for index, kind in enumerate(kinds):
        tracer.record(float(index), kind, "d")
    # Only the newest 4 survive, in arrival order.
    assert [(event.time, event.kind) for event in tracer] == [
        (3.0, "merge"),
        (4.0, "flush"),
        (5.0, "split"),
        (6.0, "bounds"),
    ]
    # Counters are not decremented by eviction: they count all 7 records.
    assert tracer.counts == {"flush": 3, "bounds": 2, "merge": 1, "split": 1}
    # Filtered views only see retained events.
    assert len(tracer.events(kind="flush")) == 1
    assert len(tracer.events(kind="bounds")) == 1


def test_ring_buffer_wraparound_multiple_times():
    tracer = DyconitTracer(capacity=3)
    for index in range(10):
        tracer.record(float(index), "flush" if index % 2 == 0 else "bounds", "d")
    assert len(tracer) == 3
    assert tracer.counts["flush"] == 5
    assert tracer.counts["bounds"] == 5
    assert [event.time for event in tracer] == [7.0, 8.0, 9.0]


def test_format_tail_after_overflow_shows_newest():
    tracer = DyconitTracer(capacity=2)
    for index in range(5):
        tracer.record(float(index), "flush", "d", detail=f"n={index}")
    text = tracer.format_tail(count=10)
    assert "n=4" in text and "n=3" in text
    assert "n=0" not in text


def test_filtering_by_dyconit():
    tracer = DyconitTracer()
    tracer.record(0.0, "flush", "a")
    tracer.record(1.0, "flush", "b")
    assert len(tracer.events(dyconit_id="a")) == 1


def test_format_tail():
    tracer = DyconitTracer()
    tracer.record(5.0, "flush", ("chunk", 0, 0), 7, "reason=staleness updates=3")
    text = tracer.format_tail()
    assert "flush" in text and "reason=staleness" in text


def test_event_str():
    event = TraceEvent(1.0, "merge", "x", None, "into y")
    assert "merge" in str(event)


def test_capacity_validation():
    with pytest.raises(ValueError):
        DyconitTracer(capacity=0)


def test_untraced_system_pays_nothing():
    system = DyconitSystem(P(), time_source=lambda: 0.0)
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())  # no tracer attached; must not raise
    assert system.tracer is None
