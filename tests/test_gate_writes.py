"""One-slot bounds writes keep the commit gates exact (S37).

``Dyconit.commit`` skips its vectorised bound scans behind scalar gates.
A one-slot bounds write — subscribe, unsubscribe, ``set_bounds``,
``rebound_one`` — keeps clean gates exact in O(1) and marks them dirty
only when it raises a bound that holds a minimum; every other mutation
marks them dirty. Whatever the mix, the gates a commit reads (after its
own ``refresh_gates``) must equal a fresh ``_recompute_aggregates()``:
exactly for the finite count, ``min_bstale`` and ``min_border``,
conservatively (never later, never lower) for ``min_deadline`` and
``count_ub``. The probes run on shallow copies, so the dyconit under
test keeps its own lazy state between steps.

CI runs this module under two ``PYTHONHASHSEED`` values.
"""

import copy
import math
import random

import numpy as np
import pytest

from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit
from repro.core.subscription import Subscriber
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

#: Bound values, repeated so that minima tie.
VALUES = (0.0, 0.5, 5.0, 40.0, 40.0, 300.0, math.inf, math.inf)


def subscriber(subscriber_id: int) -> Subscriber:
    return Subscriber(subscriber_id=subscriber_id, deliver=lambda segments: None)


def move(entity_id: int, time: float, distance: float = 1.0) -> EntityMoveEvent:
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(distance, 0, 0))


def gates(dyconit: Dyconit) -> tuple:
    return (
        dyconit.n_finite_bnum,
        dyconit.min_bstale,
        dyconit.min_border,
        dyconit.min_deadline,
        dyconit.count_ub,
    )


def assert_gates_hold(dyconit: Dyconit, where: str) -> None:
    """The gates the next commit would read against a fresh recompute."""
    read = copy.copy(dyconit)
    read.refresh_gates()
    fresh = copy.copy(dyconit)
    fresh._recompute_aggregates()
    *exact, deadline, count = gates(fresh)
    *held, held_deadline, held_count = gates(read)
    assert held == exact, where
    assert held_deadline <= deadline, where
    assert held_count >= count, where


def random_bounds(rng: random.Random) -> Bounds:
    return Bounds(rng.choice(VALUES), rng.choice(VALUES), rng.choice(VALUES))


@pytest.mark.parametrize("seed", range(6))
def test_gates_a_commit_reads_equal_a_recompute(seed):
    rng = random.Random(seed)
    dyconit = Dyconit(("chunk", 0, 0), merging=seed % 3 != 0)
    now = 0.0
    entity = 0
    ops = ("subscribe", "unsubscribe", "set_bounds", "rebound_one", "rebound", "commit",
           "drain_due")
    for step in range(600):
        op = rng.choice(ops)
        ids = list(dyconit.slots)
        if op == "subscribe" or not ids:
            dyconit.subscribe(subscriber(rng.randrange(12)), random_bounds(rng))
        elif op == "unsubscribe":
            dyconit.unsubscribe(rng.choice(ids))
        elif op == "set_bounds":
            dyconit.set_bounds(rng.choice(ids), random_bounds(rng))
        elif op == "rebound_one":
            bounds = random_bounds(rng)
            dyconit.rebound_one(
                rng.randrange(12), bounds.numerical, bounds.staleness_ms, bounds.order, now
            )
        elif op == "rebound":
            slots = sorted(rng.sample(range(dyconit.n), rng.randint(1, dyconit.n)))
            rows = [random_bounds(rng) for __ in slots]
            block = np.array([(b.numerical, b.staleness_ms, b.order) for b in rows]).T
            found = dyconit.rebound(slots, block, check_order=rng.random() < 0.5)
            if found is not None:  # the sweep drains some of what it checked
                pending = [slot for slot, at in zip(slots, found[1].tolist()) if at != math.inf]
                dyconit.drain_slots([slot for slot in pending if rng.random() < 0.5])
        elif op == "commit":
            entity += 1
            exclude = rng.choice([None, *ids])
            dyconit.commit(move(entity % 5, now, rng.choice((0.5, 4.0))), exclude, now)
        else:
            dyconit.drain_due(now)
        now += rng.choice((0.0, 1.0, 10.0, 120.0))
        assert_gates_hold(dyconit, f"seed {seed} step {step} ({op})")


def test_lowering_writes_keep_the_gates_clean_and_raising_the_minimum_does_not():
    dyconit = Dyconit(("chunk", 0, 0))
    for subscriber_id, staleness in ((1, 100.0), (2, 40.0), (3, 40.0)):
        dyconit.subscribe(subscriber(subscriber_id), Bounds(5.0, staleness))
    dyconit.commit(move(1, 0.0), None, 0.0)  # every queue pending from t=0
    assert not dyconit._gates_dirty
    assert (dyconit.min_bstale, dyconit.min_deadline) == (40.0, 40.0)

    # Lowered: the minimum and the pending queue's deadline follow, exactly.
    dyconit.rebound_one(1, 5.0, 30.0, math.inf, 1.0)
    assert not dyconit._gates_dirty
    assert (dyconit.min_bstale, dyconit.min_deadline) == (30.0, 30.0)
    assert_gates_hold(dyconit, "lowered")

    # Raised where the slot did not hold the minimum: nothing moves.
    dyconit.set_bounds(2, Bounds(math.inf, 200.0))
    assert not dyconit._gates_dirty
    assert dyconit.n_finite_bnum == 2
    assert_gates_hold(dyconit, "raised elsewhere")

    # Raised the slot holding the minimum: only a recompute finds the next.
    dyconit.rebound_one(1, 5.0, 500.0, math.inf, 1.0)
    assert dyconit._gates_dirty
    assert_gates_hold(dyconit, "raised the minimum")
    dyconit.refresh_gates()
    assert dyconit.min_bstale == 40.0

    # A tied minimum raised: dirty too, and the recompute keeps the value.
    dyconit.rebound_one(2, 5.0, 40.0, math.inf, 1.0)
    dyconit.refresh_gates()
    dyconit.rebound_one(3, 5.0, 90.0, math.inf, 1.0)
    assert dyconit._gates_dirty
    dyconit.refresh_gates()
    assert dyconit.min_bstale == 40.0

    # Unsubscribing the only finite staleness bound clears the gate.
    dyconit.set_bounds(1, Bounds(5.0, math.inf))
    dyconit.set_bounds(3, Bounds(5.0, math.inf))
    dyconit.unsubscribe(2)
    assert_gates_hold(dyconit, "unsubscribed the minimum")
    dyconit.refresh_gates()
    assert dyconit.min_bstale == math.inf

    # The order minimum follows the same rule.
    dyconit.set_bounds(1, Bounds(5.0, math.inf, 3.0))
    assert not dyconit._gates_dirty and dyconit.min_border == 3.0
    dyconit.set_bounds(1, Bounds(5.0, math.inf, 7.0))
    assert dyconit._gates_dirty
    assert_gates_hold(dyconit, "raised the order minimum")
