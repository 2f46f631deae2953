"""Backend-conformance suite (S19).

One contract, every registered backend: each test runs against every
:func:`~repro.backends.registry.state_store_factories` entry, so a new
store is under the full contract the moment it registers. The one backend whose service may be
absent (``postgres`` without ``REPRO_POSTGRES_URL``) raises
:class:`BackendUnavailable` and skips — honestly, per test; its dialect
runs here regardless, as ``postgres-dialect`` (see ``tests/conftest.py``).

The contract is *the in-memory semantics*, bit-for-bit:

* enqueue/drain replay order (commit order; supersede =
  delete-then-reinsert, so a merged survivor drains at its new commit
  position);
* accounting (conservative accumulated error as the same float-add
  sequence, enqueued/merged counts, became-pending edges, oldest
  pending time);
* bounds surface (settable live, tripped-dimension checks on all three
  TACT axes);
* repartition epoch safety (merge/split through the manager with the
  invariant auditor watching);
* and a scripted lockstep differential against the in-memory store at
  both the handle level and the full :class:`DyconitSystem` level.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import (
    POSTGRES_URL_ENV,
    BackendUnavailable,
    create_state_store,
    state_store_factories,
)
from repro.backends.base import snapshot_subscription
from repro.backends.memory import InMemoryStateStore
from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit
from repro.core.invariants import InvariantAuditor
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.block import BlockType
from repro.world.events import BlockChangeEvent, EntityMoveEvent
from repro.world.geometry import BlockPos, Vec3

from tests.conftest import RecordingSubscriber

WIDE = Bounds(1e9, 1e9)


def move(entity_id=1, time=0.0, x=0.0, distance=1.0):
    return EntityMoveEvent(
        time, entity_id, Vec3(x, 0, 0), Vec3(x + distance, 0, 0)
    )


def block(x=0, time=0.0, new=BlockType.STONE):
    return BlockChangeEvent(time, BlockPos(x, 10, 0), BlockType.AIR, new)


def fresh_store(name):
    """Build one store instance, skipping unavailable backends.

    ``reset()`` guards against shared-database pollution: the Postgres
    factory points at a *service*, so rows left by an earlier crashed
    test run (or a parallel suite) would otherwise leak into this one. Checkpoints survive reset by design, so stored restart
    snapshots are wiped explicitly too.
    """
    try:
        store = state_store_factories()[name]()
    except BackendUnavailable as exc:
        pytest.skip(f"{name}: {exc}")
    store.reset()
    return store


def test_only_postgres_may_skip(monkeypatch):
    """A store whose service is absent turns its rows yellow and the
    suite green, so only ``postgres`` may need one: every other
    registered store constructs here, with no environment variable."""
    monkeypatch.delenv(POSTGRES_URL_ENV, raising=False)
    for name, factory in state_store_factories().items():
        if name == "postgres":
            with pytest.raises(BackendUnavailable, match=POSTGRES_URL_ENV):
                factory()
        else:
            factory().close()


def test_postgres_dialect_adapter_refuses_sqlite_literals():
    """What makes the ``postgres-dialect`` rows evidence: a statement
    that did not go through the dialect cannot execute."""
    store = fresh_store("postgres-dialect")
    with pytest.raises(AssertionError, match="bypassed the dialect"):
        store._conn.execute("SELECT 1 FROM subs WHERE sub_id = ?", (1,))
    store.close()


def test_unregistered_scheme_names_the_registered_stores():
    with pytest.raises(ValueError, match="registered:.*'postgres'.*'sqlite'"):
        create_state_store("kv://localhost:6379/0")


@pytest.fixture(params=sorted(state_store_factories()))
def store(request):
    """Every registered state store, skipping the unavailable ones."""
    store = fresh_store(request.param)
    yield store
    store.close()


def make_handle(store, dyconit_id=("chunk", 0, 0), merging=True):
    """A handle exactly as the store hands it out: every state-surface
    row runs on the store's real state class."""
    handle = store.create_dyconit_state(dyconit_id, merging=merging)
    # Non-vacuity: the memory rows run on the columnar view itself.
    assert isinstance(handle, Dyconit) == (store.name == "memory")
    return handle


def subscribed(handle, subscriber_id=1, bounds=WIDE):
    recorder = RecordingSubscriber(subscriber_id)
    state = handle.subscribe(recorder.subscriber, bounds)
    return recorder, state


# ---------------------------------------------------------------------------
# Subscription lifecycle
# ---------------------------------------------------------------------------


class TestSubscriptionLifecycle:
    def test_subscribe_and_introspect(self, store):
        handle = make_handle(store)
        assert handle.subscriber_count == 0
        recorder, state = subscribed(handle)
        assert handle.subscriber_count == 1
        assert handle.is_subscribed(1)
        assert not handle.is_subscribed(2)
        assert list(handle.subscriber_ids()) == [1]
        assert handle.get_state(1) is state
        assert handle.get_state(99) is None

    def test_state_objects_are_identity_stable(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        assert handle.get_state(1) is state
        assert handle.subscription_states()[0] is state
        assert handle.subscribe(state.subscriber) is state

    def test_subscription_iteration_order_is_insertion_order(self, store):
        handle = make_handle(store)
        for sub_id in (3, 1, 2):
            subscribed(handle, sub_id)
        assert [s.subscriber.subscriber_id for s in handle.subscription_states()] == [
            3, 1, 2,
        ]

    def test_unsubscribe_returns_final_state_with_backlog(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        state.enqueue(move(1, time=1.0))
        state.enqueue(move(2, time=2.0))
        final = handle.unsubscribe(1)
        assert final is not None and final.has_pending
        assert [u.time for u in final.drain()] == [1.0, 2.0]
        assert not handle.is_subscribed(1)
        assert handle.unsubscribe(1) is None

    def test_resubscribe_after_unsubscribe_starts_fresh(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        state.enqueue(move(1, time=1.0))
        handle.unsubscribe(1)
        __, fresh = subscribed(handle)
        assert not fresh.has_pending
        assert fresh.accumulated_error == 0.0
        assert fresh.enqueued_count == 0

    def test_drop_dyconit_state_collects_persistence(self, store):
        handle = make_handle(store, dyconit_id=("chunk", 7, 7))
        __, state = subscribed(handle)
        state.enqueue(move(1, time=1.0))
        store.drop_dyconit_state(("chunk", 7, 7))
        fresh = make_handle(store, dyconit_id=("chunk", 7, 7))
        __, fresh_state = subscribed(fresh)
        assert not fresh_state.has_pending
        assert fresh_state.enqueued_count == 0


# ---------------------------------------------------------------------------
# Queue semantics: ordering, supersede, accounting
# ---------------------------------------------------------------------------


class TestQueueSemantics:
    def test_drain_replays_commit_order(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        for i in range(5):
            state.enqueue(move(entity_id=i, time=float(i)))
        assert [u.time for u in state.drain()] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert not state.has_pending
        assert state.accumulated_error == 0.0
        assert state.oldest_pending_time is None

    def test_supersede_is_delete_then_reinsert(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        first = state.enqueue(move(1, time=1.0))
        state.enqueue(move(2, time=2.0))
        second = state.enqueue(move(1, time=3.0))
        assert not first.superseded and second.superseded
        assert state.merged_count == 1
        # The survivor re-enters at its *new* commit position.
        assert [u.time for u in state.drain()] == [2.0, 3.0]

    def test_error_stays_conservative_across_merges(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        state.enqueue(move(1, distance=2.0))
        state.enqueue(move(1, distance=3.0))
        assert len(state.pending) == 1
        assert state.accumulated_error == 5.0

    def test_no_merging_keeps_duplicates(self, store):
        handle = make_handle(store, merging=False)
        __, state = subscribed(handle)
        first = state.enqueue(move(1, time=1.0))
        second = state.enqueue(move(1, time=2.0))
        assert not first.superseded and not second.superseded
        assert state.merged_count == 0
        assert [u.time for u in state.drain()] == [1.0, 2.0]

    def test_became_pending_edges(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        assert state.enqueue(move(1, time=5.0)).became_pending
        assert not state.enqueue(move(2, time=6.0)).became_pending
        state.drain()
        assert state.enqueue(move(3, time=7.0)).became_pending

    def test_oldest_pending_time_and_age(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        assert state.oldest_age_ms(now=10.0) == 0.0
        state.enqueue(move(1, time=5.0))
        state.enqueue(move(2, time=9.0))
        assert state.oldest_pending_time == 5.0
        assert state.oldest_age_ms(now=15.0) == 10.0

    def test_restore_time_order_is_stable(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle)
        state.enqueue(move(1, time=5.0))
        state.enqueue(move(2, time=1.0))
        state.enqueue(move(3, time=5.0))
        state.restore_time_order()
        assert state.oldest_pending_time == 1.0
        drained = state.drain()
        assert [u.time for u in drained] == [1.0, 5.0, 5.0]
        # Stable: the two time-5 updates keep their enqueue order.
        assert [u.entity_id for u in drained] == [2, 1, 3]

    def test_updates_replay_value_equal(self, store):
        """A drained update must encode exactly like the committed one."""
        handle = make_handle(store)
        __, state = subscribed(handle)
        committed = [move(1, time=1.0, x=3.5), block(x=2, time=2.0)]
        for update in committed:
            state.enqueue(update)
        assert state.drain() == committed


# ---------------------------------------------------------------------------
# Bounds surface
# ---------------------------------------------------------------------------


class TestBoundsSurface:
    def test_bounds_settable_live(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle, bounds=Bounds(10.0, 1000.0))
        assert state.bounds == Bounds(10.0, 1000.0)
        state.bounds = Bounds(1.0, 50.0, 3.0)
        assert state.bounds == Bounds(1.0, 50.0, 3.0)
        handle.set_bounds(1, Bounds(2.0, 60.0))
        assert state.bounds == Bounds(2.0, 60.0)

    def test_tripped_dimensions(self, store):
        handle = make_handle(store)
        __, state = subscribed(handle, bounds=Bounds(2.5, 1000.0))
        assert state.tripped_dimension(now=0.0) is None
        state.enqueue(move(1, time=0.0, distance=3.0))
        assert state.tripped_dimension(now=0.0) == "numerical"
        state.bounds = Bounds(1e9, 100.0)
        assert state.tripped_dimension(now=50.0) is None
        assert state.tripped_dimension(now=200.0) == "staleness"
        state.bounds = Bounds(1e9, 1e9, 0.5)
        assert state.tripped_dimension(now=50.0) == "order"
        assert state.exceeds_bounds(now=50.0)
        state.drain()
        assert state.tripped_dimension(now=200.0) is None

    def test_rebound_drains_what_trips(self, store):
        """The retune surface (S23, S37): new bounds on some positions in
        one call, which reports only the pending queues' error, age and
        length among them (``None`` when none is pending); the queues a
        sweep's trip check finds over its bounds drain through
        ``drain_slots``, and only those."""
        handle = make_handle(store)
        states = [subscribed(handle, sub_id)[1] for sub_id in (3, 1, 2)]
        assert handle.rebound([0, 2], block_of((5.0, 50.0, 7.0), (4.0, 40.0, math.inf))) is None
        assert [state.bounds for state in states] == [
            Bounds(5.0, 50.0, 7.0), WIDE, Bounds(4.0, 40.0)
        ]
        first = move(1, time=12.5)
        states[2].enqueue(first)
        states[0].enqueue(move(1, time=20.0))
        states[0].enqueue(block(time=21.0))
        states[1].enqueue(move(2, time=5.0, distance=9.0))
        error, oldest, counts = handle.rebound(
            [0, 2], block_of((5.0, 50.0, 7.0), (0.5, 40.0, math.inf))
        )
        assert error.tolist() == [2.0, 1.0]
        assert oldest.tolist() == [20.0, 12.5]
        assert counts.tolist() == [2, 1]
        assert states[2].bounds == Bounds(0.5, 40.0)
        # Subscriber 2's error is over its new numerical bound: it drains.
        assert [
            (subscriber.subscriber_id, updates) for subscriber, updates in handle.drain_slots([2])
        ] == [(2, [first])]
        assert not states[2].has_pending
        assert states[0].has_pending and states[1].has_pending  # 1 was not a slot
        # Without the order check no queue is counted; an empty queue
        # reports error 0 and an infinite oldest time.
        error, oldest, counts = handle.rebound([0, 2], block_of(WIDE_ROW, WIDE_ROW), False)
        assert counts is None
        assert error.tolist() == [2.0, 0.0] and oldest.tolist() == [20.0, math.inf]
        assert handle.rebound([2], block_of(WIDE_ROW)) is None


WIDE_ROW = (WIDE.numerical, WIDE.staleness_ms, WIDE.order)


def block_of(*rows):
    """A ``(3, len(rows))`` float64 block of bound rows."""
    return np.array(rows, dtype=np.float64).reshape(-1, 3).T.copy()


# ---------------------------------------------------------------------------
# Handle-level commit path
# ---------------------------------------------------------------------------


def drained(flushed):
    return [(s.subscriber_id, reason, updates) for s, reason, updates in flushed]


class TestCommitPath:
    def test_commit_fans_out_in_subscription_order(self, store):
        handle = make_handle(store)
        subscribed(handle, 2, Bounds(0.5, 1e9))
        subscribed(handle, 1, Bounds(0.5, 1e9))
        subscribed(handle, 3)
        update = move(1, time=1.0)
        n_enqueued, n_merged, became_due, flushed = handle.commit(update, None, 1.0)
        assert (n_enqueued, n_merged, became_due) == (3, 0, 1.0 + 1e9)
        assert drained(flushed) == [(2, "numerical", [update]), (1, "numerical", [update])]
        assert handle.get_state(3).has_pending
        # 3 supersedes; 2 and 1 trip again, so no queue is newly pending.
        assert handle.commit(move(1, time=2.0), None, 2.0)[:3] == (3, 1, math.inf)

    def test_commit_excludes_originator(self, store):
        handle = make_handle(store)
        subscribed(handle, 1)
        __, other = subscribed(handle, 2)
        assert handle.commit(move(1, time=1.0), 1, 1.0) == (1, 0, 1.0 + 1e9, None)
        assert other.has_pending
        assert not handle.get_state(1).has_pending

    def test_hotness_accounting_counts_touching_commits_only(self, store):
        handle = make_handle(store)
        assert handle.commit(move(1, time=1.0), None, 1.0) == (0, 0, math.inf, None)
        assert handle.commit_count == 0
        assert handle.total_committed_weight == 0.0
        subscribed(handle, 1)
        handle.commit(move(1, time=2.0, distance=2.0), None, 2.0)
        handle.commit(move(2, time=3.0, distance=3.0), 1, 3.0)
        assert handle.commit_count == 1
        assert handle.total_committed_weight == 2.0


# ---------------------------------------------------------------------------
# Lockstep differential against the in-memory store
# ---------------------------------------------------------------------------

#: A scripted op tape covering merge collisions, multi-subscriber fan-out,
#: partial drains and mid-tape re-subscription.
TAPE = (
    ("sub", 1), ("sub", 2),
    ("enq", 1, move(1, time=1.0, distance=2.0)),
    ("enq", 1, move(2, time=2.0)),
    ("enq", 1, move(1, time=3.0, distance=0.5)),
    ("enq", 2, block(x=1, time=3.5)),
    ("drain", 1),
    ("enq", 1, move(3, time=4.0)),
    ("enq", 2, block(x=1, time=4.5)),
    ("unsub", 2),
    ("sub", 3),
    ("enq", 3, move(1, time=5.0)),
    ("enq", 1, move(3, time=6.0, distance=4.0)),
    ("drain", 3),
    ("enq", 3, move(9, time=7.0)),
)


def observables(state, now=10.0):
    return (
        state.accumulated_error,
        state.oldest_pending_time,
        state.enqueued_count,
        state.merged_count,
        state.has_pending,
        state.tripped_dimension(now),
        [u for u in state.pending.values()],
    )


class TestLockstepDifferential:
    def test_handle_matches_memory_after_every_op(self, store):
        if isinstance(store, InMemoryStateStore):
            pytest.skip("memory is the reference")
        reference_store = InMemoryStateStore()
        for merging in (True, False):
            ref = make_handle(reference_store, ("d", merging), merging=merging)
            handle = make_handle(store, ("d", merging), merging=merging)
            states: dict[int, tuple] = {}
            for op, sub_id, *rest in TAPE:
                if op == "sub":
                    states[sub_id] = (
                        subscribed(ref, sub_id, Bounds(6.0, 500.0))[1],
                        subscribed(handle, sub_id, Bounds(6.0, 500.0))[1],
                    )
                elif op == "unsub":
                    ref.unsubscribe(sub_id)
                    handle.unsubscribe(sub_id)
                    states.pop(sub_id)
                elif op == "enq":
                    ref_result = states[sub_id][0].enqueue(rest[0])
                    assert states[sub_id][1].enqueue(rest[0]) == ref_result
                else:
                    assert states[sub_id][1].drain() == states[sub_id][0].drain()
                for ref_state, backend_state in states.values():
                    assert observables(backend_state) == observables(ref_state)

    def test_system_level_differential_with_repartitioning(self, store):
        """Same scenario through two DyconitSystems — commits, bound
        retunes, merge, split — delivering identical streams with the
        invariant auditor at every step."""
        if isinstance(store, InMemoryStateStore):
            pytest.skip("memory is the reference")
        auditor = InvariantAuditor()
        clock = {"now": 0.0}

        def run(backend):
            system = DyconitSystem(
                FixedBoundsPolicy(Bounds(3.0, 400.0)),
                ChunkPartitioner(),
                time_source=lambda: clock["now"],
                state_store=backend,
            )
            recorders = [RecordingSubscriber(i) for i in (1, 2)]
            a, b = ("chunk", 0, 0), ("chunk", 1, 0)
            for recorder in recorders:
                system.subscribe(a, recorder.subscriber)
                system.subscribe(b, recorder.subscriber)

            def checkpoint():
                assert auditor.check(system) == []

            clock["now"] = 10.0
            system.commit_to(a, move(1, time=10.0, distance=2.0))
            system.commit_to(b, move(2, time=10.0), exclude_subscriber=2)
            checkpoint()
            # Retune one subscription live: tightened numerical bound
            # must flush the exceeded backlog immediately.
            system.set_bounds(a, 1, Bounds(1.0, 400.0))
            checkpoint()
            # Merge the two chunks; backlog moves across queues.
            merged = ("merged", 0)
            system.merge_dyconits([a, b], merged)
            checkpoint()
            clock["now"] = 20.0
            system.commit_to(a, move(3, time=20.0))  # routes via alias
            checkpoint()
            system.tick()
            checkpoint()
            # Split back; epoch bump must keep commits routed correctly.
            system.split_dyconit(merged)
            clock["now"] = 500.0
            system.commit_to(b, move(2, time=500.0, distance=0.25))
            system.tick()  # staleness flush at 400ms
            checkpoint()
            system.flush_all()
            checkpoint()
            return [
                (recorder.subscriber.subscriber_id, recorder.deliveries)
                for recorder in recorders
            ], system.stats

        mem_deliveries, mem_stats = run("memory")
        backend_deliveries, backend_stats = run(store)
        assert backend_deliveries == mem_deliveries
        assert backend_stats == mem_stats


# ---------------------------------------------------------------------------
# Engine-level differential: every backend vs memory, packet-for-packet
# ---------------------------------------------------------------------------


def run_engine_capture(store_spec: str):
    from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
    from repro.policies.adaptive import AdaptiveBoundsPolicy
    from repro.server.config import ServerConfig
    from repro.server.engine import GameServer
    from repro.sim.simulator import Simulation
    from repro.world.world import World

    sim = Simulation()
    server = GameServer(
        sim,
        world=World(seed=19),
        config=ServerConfig(
            seed=19,
            synchronous_delivery=True,
            mob_count=2,
            audit_every_n_ticks=5,
            state_store=store_spec,
        ),
        policy=AdaptiveBoundsPolicy(),
    )
    server.start()
    workload = Workload(
        sim,
        server,
        WorkloadSpec(
            bots=5,
            seed=19,
            movement="hotspot",
            behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
            arrival_stagger_ms=40.0,
        ),
    )
    captures: dict[str, list] = {}
    original_connect = server.connect

    def tapping_connect(name, handler, **kwargs):
        log = captures.setdefault(name, [])

        def tapped(delivered):
            log.append(delivered.packet)
            handler(delivered)

        return original_connect(name, tapped, **kwargs)

    server.connect = tapping_connect
    workload.start()
    sim.run_until(4_000.0)
    return captures


@pytest.mark.parametrize("name", sorted(state_store_factories()))
def test_engine_packets_identical_to_memory(name):
    if name == "memory":
        pytest.skip("memory is the reference")
    try:
        backend = run_engine_capture(name)
    except BackendUnavailable as exc:
        pytest.skip(f"{name}: {exc}")
    reference = run_engine_capture("memory")
    assert set(backend) == set(reference)
    for client in reference:
        assert backend[client] == reference[client], f"stream diverged for {client}"


# ---------------------------------------------------------------------------
# Restart conformance (S20): snapshot -> new store instance -> reattach
# ---------------------------------------------------------------------------
#
# The restart contract rides the same scripted TAPE as the lockstep
# differential: run it to a kill point on the backend under test,
# capture every live subscription through ``snapshot_subscription``,
# abandon the store (close, new instance, ``reset``), replay the
# snapshots through ``restore_subscription``, and finish the tape —
# while an uninterrupted in-memory run of the full tape serves as the
# reference. Accounting must come back **bit-equal**, not recomputed:
# ``accumulated_error`` after a merge still carries the superseded
# update's weight, which no replay-through-enqueue could reproduce.


def _drive(handle, states, recorders, op_entry, reference_results=None, index=None):
    """Apply one TAPE op; returns the op's result (for enq comparison)."""
    op, sub_id, *rest = op_entry
    if op == "sub":
        recorder = recorders.setdefault(sub_id, RecordingSubscriber(sub_id))
        states[sub_id] = handle.subscribe(recorder.subscriber, Bounds(6.0, 500.0))
        return None
    if op == "unsub":
        handle.unsubscribe(sub_id)
        states.pop(sub_id)
        return None
    if op == "enq":
        return states[sub_id].enqueue(rest[0])
    return states[sub_id].drain()


def _restart_into_fresh_instance(name, store, handle, states, recorders):
    """Snapshot live subscriptions, kill the store, reattach to a new one."""
    snaps = {
        sub_id: snapshot_subscription(state) for sub_id, state in states.items()
    }
    store.close()
    reborn = fresh_store(name)
    new_handle = make_handle(reborn, ("d", "restart"))
    new_states = {
        sub_id: new_handle.restore_subscription(recorders[sub_id].subscriber, snap)
        for sub_id, snap in snaps.items()
    }
    return reborn, new_handle, new_states


class TestRestartConformance:
    def test_snapshot_fields_are_copied_verbatim(self, store):
        handle = make_handle(store, ("d", "snap"))
        __, state = subscribed(handle, 1, Bounds(6.0, 500.0))
        state.enqueue(move(1, time=1.0, distance=2.0))
        state.enqueue(move(1, time=3.0, distance=0.5))  # merge: error 2.5
        snap = snapshot_subscription(state)
        assert snap.subscriber_id == 1
        assert snap.bounds == Bounds(6.0, 500.0)
        assert snap.accumulated_error == state.accumulated_error == 2.5
        # Conservative staleness: the merged-away update's enqueue time
        # is retained, and the snapshot must carry it.
        assert snap.oldest_pending_time == 1.0
        assert snap.enqueued_count == 2
        assert snap.merged_count == 1
        assert snap.merging
        assert [u.time for __, u in snap.pending] == [3.0]

    def test_restore_is_bit_equal_not_recomputed(self, store):
        """The merged-away update's weight must survive the restart —
        the exact information replaying enqueue() would lose."""
        handle = make_handle(store, ("d", "bits"))
        recorder, state = subscribed(handle, 1, Bounds(6.0, 500.0))
        state.enqueue(move(1, time=1.0, distance=2.0))
        state.enqueue(move(1, time=3.0, distance=0.5))
        snap = snapshot_subscription(state)

        new_handle = make_handle(InMemoryStateStore(), ("d", "bits"))
        restored = new_handle.restore_subscription(recorder.subscriber, snap)
        assert observables(restored) == observables(state)
        assert restored.accumulated_error == 2.5  # not 0.5
        assert restored.drain() == state.drain()

    def test_restore_rejects_already_subscribed_id(self, store):
        handle = make_handle(store, ("d", "dup"))
        recorder, state = subscribed(handle, 1)
        snap = snapshot_subscription(state)
        with pytest.raises(ValueError, match="already"):
            handle.restore_subscription(recorder.subscriber, snap)

    def test_full_tape_restart_matches_uninterrupted_memory(self):
        """Anchor case: kill after every prefix would be O(n^2); the
        hypothesis schedule below samples kill points, this pins one
        deep mid-tape kill (right after the mid-tape re-subscription)
        for every backend, deterministically."""
        for name in sorted(state_store_factories()):
            if name == "memory":
                continue
            try:
                self._run_killed_tape(name, kill=11)
            except pytest.skip.Exception:  # fresh_store: service absent
                continue

    @staticmethod
    def _run_killed_tape(name, kill):
        ref_handle = make_handle(InMemoryStateStore(), ("d", "restart"))
        ref_states, ref_recorders = {}, {}

        store = fresh_store(name)
        handle = make_handle(store, ("d", "restart"))
        states, recorders = {}, {}

        for position, entry in enumerate(TAPE):
            if position == kill:
                store, handle, states = _restart_into_fresh_instance(
                    name, store, handle, states, recorders
                )
                for sub_id in states:
                    assert observables(states[sub_id]) == observables(
                        ref_states[sub_id]
                    ), f"{name}: sub {sub_id} accounting diverged at restart"
            ref_result = _drive(ref_handle, ref_states, ref_recorders, entry)
            result = _drive(handle, states, recorders, entry)
            assert result == ref_result, f"{name}: op {position} {entry!r} diverged"
            for sub_id in states:
                assert observables(states[sub_id]) == observables(
                    ref_states[sub_id]
                ), f"{name}: sub {sub_id} diverged after op {position}"
        # Post-tape deliveries match too: drains returned equal lists and
        # subscriptions are observably identical; final backlog flushes
        # the same.
        for sub_id in sorted(states):
            assert states[sub_id].drain() == ref_states[sub_id].drain()
        store.close()


@pytest.mark.parametrize(
    "name", [n for n in sorted(state_store_factories()) if n != "memory"]
)
@settings(max_examples=8, deadline=None)
@given(kill=st.integers(min_value=1, max_value=len(TAPE) - 1))
def test_restart_kill_point_schedule(name, kill):
    """Hypothesis-sampled kill points over the scripted tape: the
    restart contract holds no matter where the process dies."""
    TestRestartConformance._run_killed_tape(name, kill)
