"""Property-based tests on DyconitSystem conservation invariants.

Hypothesis drives random interleavings of commits, bound changes, ticks,
and forced flushes; after any interleaving the update-conservation
equation must hold exactly:

    enqueued == delivered + merged + still-pending
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.subscription import Subscriber
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3


bounds_strategy = st.sampled_from(
    [
        Bounds.ZERO,
        Bounds.INFINITE,
        Bounds(1.0, 100.0),
        Bounds(5.0, 500.0),
        Bounds(math.inf, 250.0),
        Bounds(3.0, math.inf),
        Bounds(math.inf, math.inf, order=3),
    ]
)

# An operation is one of:
#   ("commit", entity, dyconit, weight)
#   ("advance", ms)
#   ("set_bounds", subscriber, dyconit, bounds-index)
#   ("flush_all",)
operation_strategy = st.one_of(
    st.tuples(
        st.just("commit"),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    st.tuples(st.just("advance"), st.floats(min_value=1.0, max_value=400.0)),
    st.tuples(
        st.just("set_bounds"),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2),
        bounds_strategy,
    ),
    st.tuples(st.just("flush_all")),
)


@given(
    initial_bounds=bounds_strategy,
    operations=st.lists(operation_strategy, max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_update_conservation_under_random_interleavings(initial_bounds, operations):
    clock = {"now": 0.0}
    system = DyconitSystem(
        FixedBoundsPolicy(initial_bounds), time_source=lambda: clock["now"]
    )
    delivered_count = {"n": 0}
    subscribers = []
    for subscriber_id in (1, 2, 3):
        subscriber = Subscriber(
            subscriber_id=subscriber_id,
            deliver=lambda segments: delivered_count.__setitem__(
                "n", delivered_count["n"] + sum(len(u) for __, u in segments)
            ),
        )
        subscribers.append(subscriber)
        for dyconit_index in range(3):
            system.subscribe(("unit", dyconit_index), subscriber)

    for operation in operations:
        if operation[0] == "commit":
            __, entity, dyconit_index, weight = operation
            update = EntityMoveEvent(
                time=clock["now"],
                entity_id=entity,
                old_position=Vec3(0, 0, 0),
                new_position=Vec3(weight, 0, 0),
            )
            system.commit_to(("unit", dyconit_index), update)
        elif operation[0] == "advance":
            clock["now"] += operation[1]
            system.tick()
        elif operation[0] == "set_bounds":
            __, subscriber_id, dyconit_index, bounds = operation
            system.set_bounds(("unit", dyconit_index), subscriber_id, bounds)
        elif operation[0] == "flush_all":
            system.flush_all()

    pending = sum(
        len(state.pending)
        for dyconit in system.dyconits()
        for state in dyconit.subscription_states()
    )
    stats = system.stats
    assert stats.updates_enqueued == stats.updates_delivered + stats.updates_merged + pending
    assert stats.updates_delivered == delivered_count["n"]

    # A final barrier empties every queue.
    system.flush_all()
    remaining = sum(
        len(state.pending)
        for dyconit in system.dyconits()
        for state in dyconit.subscription_states()
    )
    assert remaining == 0
    assert (
        system.stats.updates_enqueued
        == system.stats.updates_delivered + system.stats.updates_merged
    )


@given(
    operations=st.lists(operation_strategy, max_size=40),
)
@settings(max_examples=80, deadline=None)
def test_zero_bounds_never_holds_updates(operations):
    clock = {"now": 0.0}
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds.ZERO), time_source=lambda: clock["now"]
    )
    subscriber = Subscriber(subscriber_id=1, deliver=lambda segments: None)
    for dyconit_index in range(3):
        system.subscribe(("unit", dyconit_index), subscriber)

    for operation in operations:
        if operation[0] == "commit":
            __, entity, dyconit_index, weight = operation
            if weight == 0.0:
                continue  # zero-weight updates legitimately queue
            update = EntityMoveEvent(
                time=clock["now"],
                entity_id=entity,
                old_position=Vec3(0, 0, 0),
                new_position=Vec3(weight, 0, 0),
            )
            system.commit_to(("unit", dyconit_index), update)
            pending = sum(
                len(state.pending)
                for dyconit in system.dyconits()
                for state in dyconit.subscription_states()
            )
            assert pending == 0  # delivered synchronously, always
        elif operation[0] == "advance":
            clock["now"] += operation[1]
            system.tick()
