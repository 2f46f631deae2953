"""Unit tests for the checked-mode invariant auditor (S15).

Each invariant is exercised both ways: a healthy system (including one
that has merged, split, committed, and flushed) audits clean, and a
seeded corruption of each guarded structure pair is detected with the
right catalogue key. Corruptions reach into private state on purpose —
the auditor exists to catch exactly the desynchronizations no public API
should be able to produce.
"""

import math

import pytest

from repro.core.bounds import Bounds
from repro.core.invariants import InvariantAuditor, InvariantViolationError, Violation
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
MERGED = ("region", 4, 0, 0)


@pytest.fixture
def auditor():
    return InvariantAuditor()


@pytest.fixture
def clock():
    return {"now": 0.0}


@pytest.fixture
def system(clock):
    return DyconitSystem(
        FixedBoundsPolicy(Bounds(50.0, 1000.0)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
    )


@pytest.fixture
def legacy_system(clock):
    """Per-object subscription states (the ``"per-object"`` store of
    :mod:`tests.conftest`).

    The I4 corruption tests reach into ``SubscriptionState`` fields;
    through a columnar view those writes land on materialized copies, so
    the sabotage must target the legacy store (the flat store has its own
    corruption coverage under I9).
    """
    return DyconitSystem(
        FixedBoundsPolicy(Bounds(50.0, 1000.0)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        state_store="per-object",
    )


def keys(violations: list[Violation]) -> set[str]:
    return {violation.invariant for violation in violations}


# ----------------------------------------------------------------------
# Healthy systems audit clean
# ----------------------------------------------------------------------


def test_fresh_system_is_clean(system, auditor):
    assert auditor.check(system) == []


def test_busy_system_is_clean(system, auditor, clock):
    rec = RecordingSubscriber()
    other = RecordingSubscriber(subscriber_id=2)
    system.subscribe(CHUNK_A, rec.subscriber)
    system.subscribe(CHUNK_B, rec.subscriber, bounds=Bounds(5.0, 200.0))
    system.subscribe(CHUNK_A, other.subscriber)
    system.commit_to(CHUNK_A, move(1, time=0.0))
    system.commit_to(CHUNK_B, move(2, time=0.0, x=16.0))
    assert auditor.check(system) == []
    system.merge_dyconits([CHUNK_A, CHUNK_B], MERGED)
    assert auditor.check(system) == []
    clock["now"] = 100.0
    system.tick()
    assert auditor.check(system) == []
    system.split_dyconit(MERGED)
    assert auditor.check(system) == []
    system.unsubscribe(CHUNK_A, rec.subscriber.subscriber_id)
    system.remove_subscriber(other.subscriber.subscriber_id)
    assert auditor.check(system) == []


def test_assert_ok_raises_with_structured_violations(system, auditor):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    auditor.assert_ok(system)  # clean: no raise
    system._aliases[CHUNK_B] = CHUNK_B  # self-cycle, unmirrored
    with pytest.raises(InvariantViolationError) as excinfo:
        auditor.assert_ok(system)
    assert excinfo.value.violations
    assert "I1" in str(excinfo.value)


# ----------------------------------------------------------------------
# I1 — alias tables
# ----------------------------------------------------------------------


def test_i1_detects_alias_cycle(system, auditor):
    system._aliases[CHUNK_A] = CHUNK_B
    system._aliases[CHUNK_B] = CHUNK_A
    system._alias_sources[CHUNK_B] = {CHUNK_A: None}
    system._alias_sources[CHUNK_A] = {CHUNK_B: None}
    assert "I1.alias-acyclic" in keys(auditor.check(system))


def test_i1_detects_missing_reverse_entry(system, auditor):
    system.merge_dyconits([CHUNK_A], MERGED)
    del system._alias_sources[MERGED]
    assert "I1.alias-mirror" in keys(auditor.check(system))


def test_i1_detects_stale_reverse_entry(system, auditor):
    system.merge_dyconits([CHUNK_A], MERGED)
    del system._aliases[CHUNK_A]
    assert "I1.alias-mirror" in keys(auditor.check(system))


def test_i1_detects_live_dyconit_under_alias(system, auditor):
    system.merge_dyconits([CHUNK_A], MERGED)
    system.get_or_create(CHUNK_A)  # resurrect a ghost under the aliased id
    assert "I1.alias-no-live-dyconit" in keys(auditor.check(system))


def test_i1_detects_empty_source_bucket(system, auditor):
    system._alias_sources[MERGED] = {}
    assert "I1.alias-mirror" in keys(auditor.check(system))


# ----------------------------------------------------------------------
# I2 — subscription membership mirror
# ----------------------------------------------------------------------


def test_i2_detects_missing_membership(system, auditor):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    del system._subscriptions_by_subscriber[rec.subscriber.subscriber_id][CHUNK_A]
    assert "I2.membership-mirror" in keys(auditor.check(system))


def test_i2_detects_phantom_membership(system, auditor):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system._subscriptions_by_subscriber[rec.subscriber.subscriber_id][CHUNK_B] = None
    assert "I2.membership-mirror" in keys(auditor.check(system))


def test_i2_detects_unregistered_subscriber(system, auditor):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    del system._subscribers[rec.subscriber.subscriber_id]
    del system._subscriptions_by_subscriber[rec.subscriber.subscriber_id]
    assert "I2.membership-registry" in keys(auditor.check(system))


# ----------------------------------------------------------------------
# I3 — due-time coverage
# ----------------------------------------------------------------------


def test_i3_detects_missing_heap_entry(system, auditor):
    """The dyconit's ``_due_at`` entry is what makes the due pass look."""
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, time=0.0))
    assert auditor.check(system) == []
    system._due_at.clear()
    assert "I3.due-coverage" in keys(auditor.check(system))


def test_i3_detects_too_late_heap_entry(system, auditor):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(50.0, 1000.0))
    system.commit_to(CHUNK_A, move(1, time=0.0))
    # Tighten behind the manager's back: the due time still encodes the
    # old 1000 ms deadline, so the queue would flush late.
    state = system.get(CHUNK_A).get_state(rec.subscriber.subscriber_id)
    state.bounds = Bounds(50.0, 100.0)
    assert "I3.due-coverage" in keys(auditor.check(system))


def test_i3_entries_under_merged_away_ids_are_not_coverage(system, auditor):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, time=0.0))
    # Move the queue to MERGED but forge the due times to only know
    # CHUNK_A: the pass visits live dyconits, so the moved backlog is
    # uncovered — and the dead id is a violation of its own.
    system.merge_dyconits([CHUNK_A], MERGED)
    assert set(system._due_at) == {MERGED}
    system._due_at = {CHUNK_A: system._due_at[MERGED]}
    assert {"I3.due-coverage", "I3.due-live"} <= keys(auditor.check(system))


def test_i3_no_due_time_outlives_its_dyconit(system, auditor):
    rec = RecordingSubscriber()
    for chunk in (CHUNK_A, CHUNK_B):
        system.subscribe(chunk, rec.subscriber)
        system.commit_to(chunk, move(1, time=0.0))
    system.remove_dyconit(CHUNK_A)
    system.merge_dyconits([CHUNK_B], MERGED)
    assert set(system._due_at) == {MERGED}
    system.split_dyconit(MERGED)
    assert system._due_at == {} and auditor.check(system) == []
    system._due_at[CHUNK_A] = 10.0  # an id nothing lives under
    assert "I3.due-live" in keys(auditor.check(system))


def test_i3_early_due_time_is_clean(system, auditor, clock):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, time=0.0))
    # A lower bound may be early: loosening leaves it, a forged earlier
    # value only costs a visit.
    system.set_bounds(CHUNK_A, rec.subscriber.subscriber_id, Bounds(50.0, 3000.0))
    assert system._due_at == {CHUNK_A: 1000.0}
    system._due_at[CHUNK_A] = 400.0
    assert auditor.check(system) == []
    clock["now"] = 400.0
    assert system.tick() == 0
    assert system._due_at == {CHUNK_A: 3000.0}
    clock["now"] = 3000.0
    assert system.tick() == 1
    assert system._due_at == {} and auditor.check(system) == []


def test_i3_ignores_infinite_staleness(system, auditor):
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds(math.inf, math.inf))
    system.commit_to(CHUNK_A, move(1, time=0.0))
    assert system._due_at == {}
    assert auditor.check(system) == []


# ----------------------------------------------------------------------
# I4 — queue accounting
# ----------------------------------------------------------------------


def _pending_state(system, rec):
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, time=5.0))
    system.commit_to(CHUNK_A, move(2, time=7.0, x=3.0))
    return system.get(CHUNK_A).get_state(rec.subscriber.subscriber_id)


def test_i4_detects_unzeroed_empty_queue(legacy_system, auditor):
    state = _pending_state(legacy_system, RecordingSubscriber())
    state.pending.clear()
    assert "I4.queue-zeroed" in keys(auditor.check(legacy_system))


def test_i4_detects_time_disorder(legacy_system, auditor):
    state = _pending_state(legacy_system, RecordingSubscriber())
    items = list(state.pending.items())
    state.pending.clear()
    state.pending.update(reversed(items))
    assert "I4.queue-time-order" in keys(auditor.check(legacy_system))


def test_i4_detects_oldest_newer_than_head(legacy_system, auditor):
    state = _pending_state(legacy_system, RecordingSubscriber())
    state.oldest_pending_time = 6.0  # head pends since 5.0
    assert "I4.queue-oldest" in keys(auditor.check(legacy_system))


def test_i4_detects_error_below_pending_weight(legacy_system, auditor):
    state = _pending_state(legacy_system, RecordingSubscriber())
    state.accumulated_error = 0.5  # two pending moves weigh >= 2.0
    assert "I4.queue-error-floor" in keys(auditor.check(legacy_system))


@pytest.mark.parametrize("store", ["memory", "per-object", "sqlite"])
def test_i4_detects_a_queue_over_its_bounds(store, clock, auditor):
    """A queue pushed over its numerical bound, then one whose order bound
    was tightened under two pending updates, each behind the system's
    back (no commit, no rebound): the flushes that should have happened
    did not, and the audit says so."""
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(2.5, 1000.0)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        state_store=store,
    )
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, time=0.0))
    system.commit_to(CHUNK_A, move(2, time=1.0))
    assert auditor.check(system) == []  # error 2.0 is within 2.5
    state = system.get(CHUNK_A).get_state(rec.subscriber.subscriber_id)
    state.enqueue(move(3, time=2.0))  # error 3.0, and no commit checked it
    violations = [v for v in auditor.check(system) if v.invariant == "I4.queue-within-bounds"]
    assert len(violations) == 1 and "numerical bound 2.5" in violations[0].message
    system.flush(CHUNK_A, rec.subscriber.subscriber_id)
    system.commit_to(CHUNK_A, move(1, time=3.0))
    system.commit_to(CHUNK_A, move(2, time=4.0))
    state.bounds = Bounds(1e9, 1000.0, 1.0)  # two distinct updates over order 1
    violations = [v for v in auditor.check(system) if v.invariant == "I4.queue-within-bounds"]
    assert len(violations) == 1 and "order bound 1" in violations[0].message
    system.close()


def test_i4_allows_error_above_pending_weight(system, auditor):
    # Superseded updates keep contributing error by design.
    rec = RecordingSubscriber()
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, time=0.0))
    system.commit_to(CHUNK_A, move(1, time=1.0))  # same merge key
    state = system.get(CHUNK_A).get_state(rec.subscriber.subscriber_id)
    assert state.accumulated_error > sum(u.weight for u in state.pending.values())
    assert auditor.check(system) == []


# ----------------------------------------------------------------------
# Server-level checks (I5 viewer index, I6 link FIFO) + engine wiring
# ----------------------------------------------------------------------


def _sink(delivered):  # packet sink for connect handlers
    pass


def test_check_server_clean_and_detects_viewer_divergence(sim, server_factory, auditor):
    server = server_factory(policy=FixedBoundsPolicy(Bounds(50.0, 1000.0)))
    session = server.connect("alice", handler=_sink)
    sim.run_until(500.0)
    assert auditor.check_server(server) == []
    # Corrupt the reverse map: claim a session views a chunk it does not.
    from repro.world.geometry import ChunkPos

    server.viewers._viewers_by_chunk[ChunkPos(99, 99)] = {session.client_id: session}
    found = auditor.check_server(server)
    assert "I5.viewer-index" in keys(found)


def test_check_server_reports_fifo_violations(sim, server_factory, auditor):
    server = server_factory(policy=FixedBoundsPolicy(Bounds(50.0, 1000.0)))
    server.connect("alice", handler=_sink)
    sim.run_until(200.0)
    server.transport.fifo_violations.append("client 1: delivery went backwards")
    assert "I6.link-fifo" in keys(auditor.check_server(server))


def test_engine_audit_every_n_ticks_runs_clean(sim, server_factory):
    server = server_factory(
        policy=FixedBoundsPolicy(Bounds(50.0, 1000.0)), audit_every_n_ticks=1
    )
    server.connect("alice", handler=_sink)
    server.connect("bob", handler=_sink)
    sim.run_until(1_000.0)  # every tick audited; any violation raises


def test_engine_audit_now_raises_on_corruption(sim, server_factory):
    server = server_factory(
        policy=FixedBoundsPolicy(Bounds(50.0, 1000.0)), audit_every_n_ticks=1
    )
    server.connect("alice", handler=_sink)
    sim.run_until(200.0)
    server.dyconits._aliases[CHUNK_A] = CHUNK_B  # unmirrored alias
    with pytest.raises(InvariantViolationError):
        sim.run_until(300.0)


def test_engine_audit_disabled_is_noop(sim, server_factory, monkeypatch):
    # Pin the suite-wide fallback (REPRO_AUDIT_EVERY_N_TICKS) to 0: this
    # test is *about* the disabled path staying a true no-op.
    from repro.server import engine

    monkeypatch.setattr(engine, "AUDIT_DEFAULT_EVERY_N_TICKS", 0)
    server = server_factory(policy=FixedBoundsPolicy(Bounds(50.0, 1000.0)))
    assert server._auditor is None
    server.connect("alice", handler=_sink)
    sim.run_until(200.0)
    server.dyconits._aliases[CHUNK_A] = CHUNK_B
    sim.run_until(300.0)  # corruption goes unnoticed: checked mode is off
    server.dyconits._aliases.pop(CHUNK_A)


def test_violation_str_and_error_message():
    violation = Violation("I3.due-coverage", "(chunk, 1)", "due time is missing")
    assert "I3.due-coverage" in str(violation)
    error = InvariantViolationError([violation])
    assert "1 middleware invariant violation" in str(error)
    assert error.violations == [violation]
