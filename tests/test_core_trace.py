"""Unit tests for the middleware decision log (``trace.<kind>`` hub events)."""

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, ChunkPartitioner
from repro.core.policy import LoadSignals
from repro.policies.adaptive import AdaptiveBoundsPolicy
from repro.policies.fixed import FixedBoundsPolicy
from repro.telemetry.hub import Telemetry
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


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
    return DyconitSystem(
        FixedBoundsPolicy(Bounds(0.5, 1e9)),
        time_source=lambda: 0.0,
        telemetry=Telemetry(enabled=True),
    )


def decisions(system, kind):
    """The system's ``trace.<kind>`` events as field dicts, in order."""
    return [
        dict(event.fields) for event in system.telemetry.events if event.kind == "trace." + kind
    ]


def decision_count(system, kind):
    return system.telemetry.snapshot().get(f"trace_events_total{{kind={kind}}}", 0)


def test_flush_is_traced_with_reason():
    system = make_traced_system()
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())
    flushes = decisions(system, "flush")
    assert flushes == [
        {
            "dyconit": repr(("chunk", 0, 0)),
            "subscriber": str(rec.subscriber.subscriber_id),
            "detail": "reason=numerical updates=1",
        }
    ]
    assert decision_count(system, "flush") == 1


def test_bounds_change_is_traced():
    system = make_traced_system()
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.set_bounds(("chunk", 0, 0), rec.subscriber.subscriber_id, Bounds(9.0, 90.0))
    events = decisions(system, "bounds")
    assert len(events) == 1
    assert events[0]["detail"] == "numerical=9 staleness=90"
    assert decision_count(system, "bounds") == 1


def test_retune_pass_traces_each_rewritten_pair_as_set_bounds_would():
    """The column retune (S23) writes no bound through ``set_bounds`` yet
    records one ``bounds`` event per client pair it rewrites, with the
    detail ``set_bounds`` would give those bounds; peers get none."""
    policy = AdaptiveBoundsPolicy()
    system = DyconitSystem(
        policy, ChunkPartitioner(), time_source=lambda: 0.0, telemetry=Telemetry(enabled=True)
    )
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
        (event["dyconit"], event["subscriber"], event["detail"])
        for event in decisions(system, "bounds")
    )
    assert len(retuned) == len(ids) * len(clients)
    for dyconit_id in ids:
        for subscriber in clients:
            state = system.get(dyconit_id).get_state(subscriber.subscriber_id)
            system.set_bounds(dyconit_id, subscriber.subscriber_id, state.bounds)
    by_set_bounds = sorted(
        (event["dyconit"], event["subscriber"], event["detail"])
        for event in decisions(system, "bounds")[len(retuned):]
    )
    assert retuned == by_set_bounds
    assert decision_count(system, "bounds") == 2 * len(retuned)


def test_merge_and_split_are_traced():
    system = make_traced_system()
    system.merge_dyconits([("chunk", 0, 0), ("chunk", 1, 0)], ("region", 4, 0, 0))
    system.split_dyconit(("region", 4, 0, 0))
    assert decision_count(system, "merge") == 2
    assert decision_count(system, "split") == 2
    assert [event["detail"] for event in decisions(system, "split")] == [
        "out of ('region', 4, 0, 0)"
    ] * 2


def test_untraced_system_pays_nothing():
    """A disabled hub resolves no decision handle: the flush, bounds and
    retune paths pay one ``is None`` check and record nothing."""
    telemetry = Telemetry(enabled=False)
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(0.5, 1e9)), time_source=lambda: 0.0, telemetry=telemetry
    )
    rec = RecordingSubscriber()
    system.subscribe(("chunk", 0, 0), rec.subscriber)
    system.commit(move())
    system.set_bounds(("chunk", 0, 0), rec.subscriber.subscriber_id, Bounds(9.0, 90.0))
    assert system._tm_decide is None
    assert system.stats.flushes == 1
    assert telemetry.events == [] and telemetry.snapshot() == {}
