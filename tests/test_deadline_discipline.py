"""Bound bookkeeping that costs what changed: the due-pass discipline.

* one due time per *dyconit* (``DyconitSystem._due_at``), a lower bound
  on its earliest ``oldest + staleness``: lowered by whatever creates or
  advances a deadline, raised only by the due pass, which recomputes it
  exactly — so a refill after a numerical flush, or a loosened bound,
  costs one examined dyconit later, never an entry per pair;
* the flat store's scalar gates refresh lazily, at the next commit —
  never late;
* ``resolve`` skips the alias walk for ids that were never merged.

Every state kind answers the one due rule, so these run on the flat
store, the per-object states and the sqlite rows alike. (Test names that
still say "entry", "armed" or "heap" are the ids the floor list knows the
scenarios by; what they pin now is said in each body.)
"""

import math
import pickle

import pytest

from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit
from repro.core.invariants import InvariantAuditor
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber


def move(entity_id=1, time=0.0, x=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(x, 0, 0), Vec3(x + 1, 0, 0))


CHUNK_A = ("chunk", 0, 0)
CHUNK_B = ("chunk", 1, 0)

#: state_store specs: flat columns, per-object states (the store
#: tests/conftest.py registers), sqlite rows.
STATE_KINDS = [
    pytest.param("memory", id="flat"),
    pytest.param("per-object", id="legacy"),
    pytest.param("sqlite", id="sqlite"),
]


@pytest.fixture
def clock():
    return {"now": 0.0}


def make_system(clock, bounds=Bounds(math.inf, 1000.0), **kwargs) -> DyconitSystem:
    return DyconitSystem(
        FixedBoundsPolicy(bounds),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        **kwargs,
    )


@pytest.fixture(params=STATE_KINDS)
def system(request, clock):
    with make_system(clock, state_store=request.param) as system:
        yield system


# ----------------------------------------------------------------------
# One due time per dyconit
# ----------------------------------------------------------------------


def test_refill_after_numerical_flush_pushes_no_duplicate(system, clock):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(2.5, 1000.0))
    system.commit_to(CHUNK_A, move(time=0.0))
    assert system._due_at == {CHUNK_A: 1000.0}
    clock["now"] = 100.0
    system.commit_to(CHUNK_A, move(time=100.0))
    system.commit_to(CHUNK_A, move(time=100.0))  # error 3 > 2.5: flush
    assert system.stats.flushes_numerical == 1
    clock["now"] = 200.0
    system.commit_to(CHUNK_A, move(time=200.0))  # refill: true deadline 1200
    # The recorded due time (1000) comes before the refilled queue is due,
    # so it already guarantees the visit: nothing is added for the refill.
    assert system._due_at == {CHUNK_A: 1000.0}
    assert InvariantAuditor().check(system) == []
    # ...and it costs one examined subscription when it passes.
    checks = system.stats.bound_checks
    clock["now"] = 1000.0
    assert system.tick() == 0
    assert system.stats.bound_checks == checks + 1
    assert system._due_at == {CHUNK_A: 1200.0}


def test_early_pop_rearms_once_at_the_true_deadline(system, clock):
    """An early due time (the bound was loosened after it was recorded)
    costs one visit, which raises it to the exact deadline."""
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    sub_id = rec.subscriber.subscriber_id
    system.commit_to(CHUNK_A, move(time=0.0))
    system.set_bounds(CHUNK_A, sub_id, Bounds(math.inf, 5000.0))  # loosen
    assert system._due_at == {CHUNK_A: 1000.0}  # later deadline: not raised
    checks = system.stats.bound_checks
    clock["now"] = 1000.0
    assert system.tick() == 0
    assert system.stats.bound_checks == checks + 1
    assert system._due_at == {CHUNK_A: 5000.0}
    clock["now"] = 4999.0
    assert system.tick() == 0 and system.stats.bound_checks == checks + 1
    clock["now"] = 5000.0
    assert system.tick() == 1
    assert system._due_at == {}
    assert rec.delivered_updates


def test_dead_entry_pops_without_a_bound_check(system, clock):
    """Tighten, flush, refill, loosen: the superseded deadlines (1000,
    then 700) leave nothing behind to pop — the one visit at 1000
    examines the one pending subscription and finds the exact 5400."""
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    sub_id = rec.subscriber.subscriber_id
    system.commit_to(CHUNK_A, move(time=0.0))
    system.set_bounds(CHUNK_A, sub_id, Bounds(math.inf, 300.0))  # tighten
    assert system._due_at == {CHUNK_A: 300.0}
    clock["now"] = 300.0
    assert system.tick() == 1
    assert system._due_at == {}
    clock["now"] = 400.0
    system.commit_to(CHUNK_A, move(time=400.0))  # pending again, due 700
    assert system._due_at == {CHUNK_A: 700.0}
    system.set_bounds(CHUNK_A, sub_id, Bounds(math.inf, 5000.0))  # due 5400
    checks = system.stats.bound_checks
    clock["now"] = 1000.0
    assert system.tick() == 0
    assert system.stats.bound_checks == checks + 1
    assert system._due_at == {CHUNK_A: 5400.0}
    assert InvariantAuditor().check(system) == []


def test_armed_entry_survives_unsubscribe_and_covers_the_resubscription(
    system, clock
):
    """The due time belongs to the dyconit, not to the pair: an
    unsubscribe leaves it, and it covers the re-subscribed queue."""
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    sub_id = rec.subscriber.subscriber_id
    system.commit_to(CHUNK_A, move(time=0.0))
    system.unsubscribe(CHUNK_A, sub_id)
    clock["now"] = 500.0
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(time=500.0))  # due 1500, recorded 1000
    assert system._due_at == {CHUNK_A: 1000.0}
    assert InvariantAuditor().check(system) == []
    clock["now"] = 1000.0
    assert system.tick() == 0
    assert system._due_at == {CHUNK_A: 1500.0}
    clock["now"] = 1500.0
    assert system.tick() == 1


def test_heap_stays_proportional_to_pending_pairs(system, clock):
    """A crowd whose queues flush numerically several times per staleness
    period: deadline state is one float per dyconit with a pending queue
    however often its pairs flush and refill (the per-pair heap kept
    ~3x the pending pairs before ``_armed``, ~1.1x with it)."""
    recs = [RecordingSubscriber(subscriber_id=i) for i in range(1, 9)]
    chunks = [("chunk", cx, 0) for cx in range(4)]
    for rec in recs:
        for chunk in chunks:
            system.subscribe(chunk, rec.subscriber, bounds=Bounds(2.5, 1000.0))
    for tick in range(200):  # 10 simulated seconds at 20 Hz
        clock["now"] = tick * 50.0
        for index, chunk in enumerate(chunks):
            # weight 1 per commit: a numerical flush every third one
            system.commit_to(chunk, move(entity_id=index + 1, time=clock["now"]))
        system.tick()
    assert system.stats.flushes_numerical > 10 * system.stats.flushes_staleness
    pending = sum(
        1
        for dyconit in system.dyconits()
        for state in dyconit.subscription_states()
        if state.has_pending
    )
    assert pending == len(recs) * len(chunks)
    assert set(system._due_at) == set(chunks)
    assert InvariantAuditor().check(system) == []


def test_due_at_holds_live_dyconits_with_pending_queues_only(system, clock):
    a, b = RecordingSubscriber(1), RecordingSubscriber(2)
    for chunk in (CHUNK_A, CHUNK_B):
        system.subscribe(chunk, a.subscriber)
        system.subscribe(chunk, b.subscriber)
    assert system._due_at == {}  # subscribed, nothing pending
    system.commit_to(CHUNK_A, move(time=0.0))
    system.commit_to(CHUNK_B, move(time=0.0))
    assert system._due_at == {CHUNK_A: 1000.0, CHUNK_B: 1000.0}
    system.remove_dyconit(CHUNK_B)
    assert system._due_at == {CHUNK_A: 1000.0}
    # A merge takes the source's entry along and lowers the target's for
    # the backlog it moves.
    merged = ("region", 4, 0, 0)
    system.merge_dyconits([CHUNK_A], merged)
    assert system._due_at == {merged: 1000.0}
    assert InvariantAuditor().check(system) == []
    system.split_dyconit(merged)  # flushes the target's backlog
    assert system._due_at == {}
    assert InvariantAuditor().check(system) == []


def test_subnormal_staleness_flushes_instead_of_spinning(system, clock):
    """``oldest + staleness`` cannot be placed after ``oldest`` when the
    bound is subnormal: the rule is evaluated on that sum, so the queue
    is due at once and the pass ends."""
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, 1000.0))
    clock["now"] = 100.0
    system.commit_to(CHUNK_A, move(time=100.0))
    state = system.get(CHUNK_A).get_state(rec.subscriber.subscriber_id)
    state.bounds = Bounds(math.inf, 5e-324)  # behind the manager's back
    system._due_at[CHUNK_A] = 100.0
    assert system.tick() == 1
    assert system._due_at == {} and rec.delivered_updates


# ----------------------------------------------------------------------
# No snapshot field: restore rebuilds the due times
# ----------------------------------------------------------------------


def _resume(snap, clock, recs):
    fresh = make_system(clock)
    fresh.restore(
        pickle.loads(pickle.dumps(snap)),
        {rec.subscriber.subscriber_id: rec.subscriber for rec in recs},
    )
    return fresh


def test_restore_rebuilds_due_at_exactly(clock):
    system = make_system(clock)
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.subscribe(CHUNK_B, rec.subscriber)
    system.commit_to(CHUNK_A, move(time=0.0))
    system.commit_to(CHUNK_B, move(time=0.0))
    sub_id = rec.subscriber.subscriber_id
    system.set_bounds(CHUNK_A, sub_id, Bounds(math.inf, 300.0))
    system.set_bounds(CHUNK_B, sub_id, Bounds(math.inf, 5000.0))  # loosened
    assert system._due_at == {CHUNK_A: 300.0, CHUNK_B: 1000.0}
    snap = system.snapshot()
    assert not {"deadline_heap", "heap_seq", "armed"} & set(vars(snap))
    resumed = _resume(snap, clock, [rec])
    # Exact, not the live system's (early) lower bound for CHUNK_B.
    assert resumed._due_at == {CHUNK_A: 300.0, CHUNK_B: 5000.0}
    assert InvariantAuditor().check(resumed) == []


# ----------------------------------------------------------------------
# Lazy gates: refreshed by the next commit, never late
# ----------------------------------------------------------------------


def test_tightened_staleness_flushes_at_the_very_next_commit(clock):
    system = make_system(clock, Bounds(math.inf, 10_000.0))
    near, far = RecordingSubscriber(1), RecordingSubscriber(2)
    system.subscribe(CHUNK_A, near.subscriber)
    system.subscribe(CHUNK_A, far.subscriber)
    system.commit_to(CHUNK_A, move(time=0.0))
    flat = system.get(CHUNK_A)
    assert isinstance(flat, Dyconit)
    assert flat.min_deadline == 10_000.0 and not flat._gates_dirty
    # A retune tightens one backlog's staleness to a deadline of 600 —
    # not due yet, so set_bounds itself flushes nothing; a lowered bound
    # keeps the gates exact in O(1) (S37): the staleness gate now says
    # "due at 600", with no recompute pending.
    clock["now"] = 500.0
    system.set_bounds(CHUNK_A, 1, Bounds(math.inf, 600.0))
    assert not flat._gates_dirty and flat.min_deadline == 600.0
    assert not near.deliveries
    # No tick in between: the commit's own staleness scan must catch it.
    clock["now"] = 650.0
    system.commit_to(CHUNK_A, move(entity_id=2, time=650.0))
    assert not flat._gates_dirty
    assert len(near.delivered_updates) == 2 and not far.deliveries
    assert system.stats.flushes_staleness == 1


def test_sweep_recomputes_gates_once_not_per_set_bounds(clock, monkeypatch):
    system = make_system(clock, Bounds(50.0, 1000.0))
    recs = [RecordingSubscriber(subscriber_id=i) for i in range(1, 11)]
    for rec in recs:
        system.subscribe(CHUNK_A, rec.subscriber)
    flat = system.get(CHUNK_A)
    assert isinstance(flat, Dyconit)
    recomputes = []
    original = Dyconit._recompute_aggregates
    monkeypatch.setattr(
        Dyconit,
        "_recompute_aggregates",
        lambda self: (recomputes.append(1), original(self)),
    )
    # Tightening keeps the gates exact as it goes (S37): no recompute.
    for rec in recs:
        system.set_bounds(CHUNK_A, rec.subscriber.subscriber_id, Bounds(40.0, 900.0))
    assert recomputes == []
    system.commit_to(CHUNK_A, move(time=0.0))
    system.commit_to(CHUNK_A, move(time=0.0))
    assert recomputes == []
    assert flat.min_bstale == 900.0 and flat.min_deadline == 900.0
    # Loosening raises the minimum's holders: the gates go dirty once,
    # and the next commit recomputes them once, not per set_bounds.
    for rec in recs:
        system.set_bounds(CHUNK_A, rec.subscriber.subscriber_id, Bounds(40.0, 950.0))
    assert recomputes == [] and flat._gates_dirty
    system.commit_to(CHUNK_A, move(time=10.0))
    system.commit_to(CHUNK_A, move(time=10.0))
    assert recomputes == [1]
    assert flat.min_bstale == 950.0


def test_auditor_checks_gates_exactly_after_refreshing_them(clock):
    system = make_system(clock, Bounds(50.0, 1000.0))
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(time=0.0))
    # Loosened: the slot held the minimum, so the gates go dirty (S37).
    system.set_bounds(CHUNK_A, rec.subscriber.subscriber_id, Bounds(60.0, 1100.0))
    flat = system.get(CHUNK_A)
    assert isinstance(flat, Dyconit)
    assert flat._gates_dirty
    assert InvariantAuditor().check(system) == []  # refreshed, then exact
    assert not flat._gates_dirty and flat.min_bstale == 1100.0
    # Clean gates get no such grace: a wrong value is a violation.
    flat.min_deadline = 5000.0
    assert "I9.gates" in {v.invariant for v in InvariantAuditor().check(system)}


# ----------------------------------------------------------------------
# resolve(): no alias walk for ids that were never merged
# ----------------------------------------------------------------------


def test_resolve_returns_unaliased_ids_untouched(clock):
    system = make_system(clock, Bounds.ZERO)
    assert system.resolve(CHUNK_A) is CHUNK_A
    system.merge_dyconits([CHUNK_A], ("region", 4, 0, 0))
    system.merge_dyconits([("region", 4, 0, 0)], ("region", 8, 0, 0))
    assert system.resolve(CHUNK_A) == ("region", 8, 0, 0)
    assert system.resolve(CHUNK_B) is CHUNK_B


def test_resolve_still_refuses_an_alias_cycle(clock):
    system = make_system(clock, Bounds.ZERO)
    system._aliases[CHUNK_A] = CHUNK_B
    system._aliases[CHUNK_B] = CHUNK_A
    with pytest.raises(RuntimeError, match="alias cycle"):
        system.resolve(CHUNK_A)
