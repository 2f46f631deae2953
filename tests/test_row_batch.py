"""The batched row store (S25) against the per-object reference.

``SQLiteDyconitState`` answers ``commit``, ``drain_due``, ``rebound`` and
``drain_slots`` in a few statements per dyconit. Two references hold it
to the rules:

* the ``per-object`` store (``tests/conftest.py``): the same calls as
  walks over plain ``SubscriptionState`` objects. Every tuple a handle
  returns, ``DyconitStats``, every due time and every delivery must be
  equal after every step of a scripted tape;
* :class:`RowWalkState`: the same rows driven the way the manager drove
  them before S25 — one subscription view at a time, seven statements per
  enqueue. The ``subs`` and ``pending`` tables, seqs and blobs included,
  must be equal row for row after every step.

The tape covers a supersede on only some subscribers, an excluded
originator, a non-merging dyconit, a finite order bound (the count path),
zero and infinite bounds, a commit and a retune exactly at the staleness
bound, an empty dyconit, subscriptions restored from a snapshot, and a
retune that trips all three dimensions. Then a 2,000-tick, 16-bot
adaptive hotspot on sqlite must send every client what the memory store
sends it, when it sends it.

CI runs this module under two ``PYTHONHASHSEED`` values.
"""

import math

import numpy as np
import pytest

from repro.backends import create_state_store
from repro.backends.sqlite_store import SQLiteDyconitState
from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.policy import Policy
from repro.world.block import BlockType
from repro.world.events import BlockChangeEvent, EntityMoveEvent
from repro.world.geometry import BlockPos, Vec3

from tests.conftest import PerObjectDyconit, RecordingSubscriber
from tests.test_delivery_encode import run_single

A, B, NOMERGE, EMPTY = ("chunk", 0, 0), ("chunk", 1, 0), ("nomerge", 0), ("empty", 0)


class RowWalkState(SQLiteDyconitState):
    """The row reference: the batched calls as the per-view walks the
    manager ran before S25 (enqueue every view, then check each one)."""

    def commit(self, update, exclude_subscriber, now):
        touched = [
            (view, view.enqueue(update))
            for sub_id, view in self._views.items()
            if sub_id != exclude_subscriber
        ]
        if not touched:
            return 0, 0, math.inf, None
        self.total_committed_weight += update.weight
        self.commit_count += 1
        became_due = math.inf
        flushed = []
        for view, result in touched:
            reason = view.tripped_dimension(now)
            if reason is not None:
                flushed.append((view.subscriber, reason, view.drain()))
            elif result.became_pending:
                became_due = min(became_due, update.time + view.bounds.staleness_ms)
        merged = sum(result.superseded for __, result in touched)
        return len(touched), merged, became_due, flushed or None

    def drain_due(self, now):
        examined, due, next_deadline = 0, [], math.inf
        for view in self.subscription_states():
            oldest = view.oldest_pending_time
            if oldest is None:
                continue
            examined += 1
            deadline = oldest + view.bounds.staleness_ms
            if deadline <= now:
                due.append((view.subscriber, deadline, view.drain()))
            else:
                next_deadline = min(next_deadline, deadline)
        return examined, due, next_deadline

    def rebound(self, slots, bounds, check_order=True):
        views = self.subscription_states()
        chosen = [views[slot] for slot in slots]
        for view, row in zip(chosen, zip(*bounds.tolist())):
            view.bounds = Bounds(*row)
        if not any(view.has_pending for view in chosen):
            return None
        oldest = [view.oldest_pending_time for view in chosen]
        counts = None
        if check_order:
            counts = np.array([len(view.pending) for view in chosen], dtype=np.int64)
        return (
            np.array([view.accumulated_error for view in chosen], dtype=np.float64),
            np.array([math.inf if t is None else t for t in oldest], dtype=np.float64),
            counts,
        )

    def drain_slots(self, slots):
        views = self.subscription_states()
        return [(views[slot].subscriber, views[slot].drain()) for slot in slots]


def walk_store(name):
    store = create_state_store(name)
    store.create_dyconit_state = lambda dyconit_id, *, merging: RowWalkState(
        store, dyconit_id, merging=merging
    )
    return store


def rows(store) -> tuple:
    conn = store._conn
    return (
        conn.execute("SELECT * FROM subs ORDER BY pos").fetchall(),
        conn.execute("SELECT * FROM pending ORDER BY seq").fetchall(),
    )


class Unused(Policy):
    """Every subscription in the tape names its bounds."""

    def bounds_columns(self, system, table):
        raise AssertionError("the tape names every bound")


def move(entity_id, time, distance=1.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(distance, 0, 0))


def block(x, time):
    return BlockChangeEvent(time, BlockPos(x, 10, 0), BlockType.AIR, BlockType.STONE)


#: Initial subscriptions: (dyconit, subscriber id, bounds).
SUBSCRIPTIONS = (
    (A, 1, Bounds(10.0, 100.0)),
    (A, 2, Bounds.ZERO),
    (A, 3, Bounds.INFINITE),
    (A, 4, Bounds(1e9, 1e9, 2.0)),
    (B, 1, Bounds(2.5, 60.0)),
    (B, 5, Bounds(10.0, 150.0)),
    (NOMERGE, 3, Bounds(1e9, 80.0)),
    (NOMERGE, 4, Bounds(1e9, 1e9, 3.0)),
)

#: The retune at t=290: (dyconit, subscriber) -> new bounds; the rest keep
#: theirs. Subscriber 1 trips B numerically, 5 trips B exactly at its new
#: staleness bound, 4 trips the non-merging dyconit on order.
RETUNE = {
    (B, 1): Bounds(0.1, 1e9),
    (B, 5): Bounds(1e9, 30.0),
    (NOMERGE, 4): Bounds(1e9, 1e9, 0.0),
    (A, 1): Bounds(1e9, 1e9, 1.0),
}

#: ``(time, op, args)``; a commit's args are ``(dyconit, update, excluded)``.
TAPE = (
    (10.0, "commit", (A, move(1, 10.0), 3)),  # 2 (zero bound) trips
    (20.0, "commit", (A, move(2, 20.0), None)),
    (30.0, "subscribe", (A, 5, Bounds(10.0, 200.0))),
    (30.0, "commit", (A, move(1, 30.0, 0.5), None)),  # supersedes on 1 and 4 only
    (40.0, "commit", (A, block(1, 40.0), None)),  # 4 trips order: the count path
    (50.0, "commit", (EMPTY, move(9, 50.0), None)),  # nobody subscribed
    (60.0, "commit", (NOMERGE, move(1, 60.0), None)),
    (70.0, "commit", (NOMERGE, move(1, 70.0), 4)),
    (80.0, "commit", (B, move(3, 80.0, 2.0), None)),
    (90.0, "tick", ()),  # nothing due yet
    (110.0, "commit", (A, move(2, 110.0, 0.25), 5)),  # 1 is exactly 100 ms stale
    (140.0, "tick", ()),  # 1 on B and 3 on the non-merging dyconit are due
    (150.0, "commit", (NOMERGE, move(1, 150.0), None)),
    (160.0, "restart", ()),
    (170.0, "commit", (B, move(3, 170.0, 0.5), None)),
    (180.0, "commit", (A, move(1, 180.0), None)),
    (200.0, "tick", ()),
    (220.0, "commit", (B, move(4, 220.0, 0.5), None)),
    (240.0, "tick", ()),
    (260.0, "commit", (B, move(4, 260.0, 0.5), 1)),
    (270.0, "commit", (B, move(5, 270.0, 0.5), 5)),
    (290.0, "retune", ()),
    (300.0, "commit", (NOMERGE, move(2, 300.0), 3)),  # 4 trips order 0
    (400.0, "tick", ()),
    (1_000.0, "tick", ()),
)


class Lockstep:
    """One system of the lockstep: its store, clock and recorders.
    Each subscriber stands at ``x = its id``, so a retune can tell them
    apart by position."""

    def __init__(self, new_store, clock) -> None:
        self.new_store = new_store
        self.clock = clock
        self.recorders = {
            sub_id: RecordingSubscriber(sub_id, Vec3(sub_id, 0, 0)) for sub_id in range(1, 6)
        }
        self.store = new_store()
        self.system = self._system(self.store)
        for dyconit_id, sub_id, bounds in SUBSCRIPTIONS:
            self._subscribe(dyconit_id, sub_id, bounds)

    def _system(self, store) -> DyconitSystem:
        return DyconitSystem(
            Unused(), ChunkPartitioner(), time_source=lambda: self.clock[0], state_store=store
        )

    def _subscribe(self, dyconit_id, sub_id, bounds) -> None:
        system = self.system
        system.merging_enabled = dyconit_id != NOMERGE
        system.subscribe(dyconit_id, self.recorders[sub_id].subscriber, bounds)
        system.merging_enabled = True

    def step(self, op, args) -> None:
        system = self.system
        if op == "commit":
            dyconit_id, update, exclude = args
            system.commit_to(dyconit_id, update, exclude)
        elif op == "subscribe":
            self._subscribe(*args)
        elif op == "tick":
            system.tick()
        elif op == "retune":
            system.retune_clients(self._retune_columns)
        else:
            snapshot = system.snapshot()
            self.store = self.new_store()
            self.system = self._system(self.store)
            self.system.restore(
                snapshot, {sub_id: r.subscriber for sub_id, r in self.recorders.items()}
            )

    @staticmethod
    def _retune_columns(system, table):
        pairs = zip(
            [table.dyconit_ids[row] for row in table.id_rows.tolist()],
            table.positions[table.position_rows, 0].tolist(),
        )
        bounds = [
            RETUNE.get(
                (dyconit_id, int(x)), system.get(dyconit_id).get_state(int(x)).bounds
            )
            for dyconit_id, x in pairs
        ]
        return tuple(
            np.array([getattr(b, name) for b in bounds], dtype=np.float64)
            for name in ("numerical", "staleness_ms", "order")
        )

    def deliveries(self) -> dict:
        return {sub_id: r.deliveries for sub_id, r in self.recorders.items()}


def _plain(name, result):
    """A batched call's result with each subscriber as its id and each
    array as a list."""

    def by_id(drained):
        if drained is None:
            return None
        return [
            (subscriber.subscriber_id, tag, list(updates))
            for subscriber, tag, updates in drained
        ]

    if name == "commit":
        return (*result[:3], by_id(result[3]))
    if name == "rebound":
        return None if result is None else [
            None if column is None else column.tolist() for column in result
        ]
    if name == "drain_slots":
        return [(subscriber.subscriber_id, list(updates)) for subscriber, updates in result]
    return (result[0], by_id(result[1]), result[2])


@pytest.fixture
def recorded_calls(monkeypatch):
    """Log every batched call's plain result, per handle class."""
    calls = {PerObjectDyconit: [], SQLiteDyconitState: []}
    for cls, log in calls.items():
        for name in ("commit", "drain_due", "rebound", "drain_slots"):
            original = getattr(cls, name)

            def recording(handle, *args, _original=original, _log=log, _name=name):
                result = _original(handle, *args)
                _log.append((_name, handle.dyconit_id, _plain(_name, result)))
                return result

            monkeypatch.setattr(cls, name, recording)
    return calls


@pytest.mark.parametrize("name", ["sqlite", "postgres-dialect"])
def test_lockstep_with_per_object_reference(name, recorded_calls):
    clock = [0.0]
    product = Lockstep(lambda: create_state_store(name), clock)
    reference = Lockstep(lambda: create_state_store("per-object"), clock)
    walk = Lockstep(lambda: walk_store(name), clock)
    assert all(type(handle) is SQLiteDyconitState for handle in product.system.dyconits())
    assert all(type(handle) is RowWalkState for handle in walk.system.dyconits())
    retune_reasons = set()
    for position, (time, op, args) in enumerate(TAPE):
        clock[0] = time
        stats = reference.system.stats
        before = (stats.flushes_numerical, stats.flushes_staleness, stats.flushes_order)
        for each in (product, reference, walk):
            each.step(op, args)
        if op == "retune":
            after = (stats.flushes_numerical, stats.flushes_staleness, stats.flushes_order)
            retune_reasons = {
                reason
                for reason, was, now in zip(("numerical", "staleness", "order"), before, after)
                if now > was
            }
        where = f"step {position} ({op} at t={time})"
        assert recorded_calls[SQLiteDyconitState] == recorded_calls[PerObjectDyconit], where
        assert product.system.stats == reference.system.stats, where
        assert product.system._due_at == reference.system._due_at, where
        assert product.deliveries() == reference.deliveries(), where
        assert rows(product.store) == rows(walk.store), where
        assert walk.system.stats == reference.system.stats, where
    for each in (product, reference, walk):
        each.system.flush_all()
    assert product.deliveries() == reference.deliveries() == walk.deliveries()
    assert rows(product.store) == rows(walk.store)

    # Non-vacuity: the tape reached every case it names.
    calls = recorded_calls[PerObjectDyconit]
    commits = [result for op, __, result in calls if op == "commit"]
    assert (0, 0, math.inf, None) in commits  # the empty dyconit
    assert any(0 < merged < n for n, merged, *__ in commits)  # supersede on some
    commit_reasons = {
        reason for *__, flushed in commits if flushed for __, reason, __ in flushed
    }
    assert commit_reasons == {"numerical", "staleness", "order"}
    assert retune_reasons == {"numerical", "staleness", "order"}
    assert any(op == "drain_slots" for op, __, __ in calls)
    assert any(op == "drain_due" and result[1] for op, __, result in calls)
    assert product.system.stats.updates_merged > 0
    assert product.system.stats.flushes_staleness > 0


def test_adaptive_hotspot_2k_ticks_sqlite_equals_memory():
    """``adaptive-sqlite``'s shape at 16 bots: every client is sent the
    same packets at the same times, and the middleware counts the same."""
    sqlite, __ = run_single("sqlite")
    memory, __ = run_single("memory")
    assert sum(len(log) for log in memory["logs"].values()) > 100_000
    assert sqlite["logs"] == memory["logs"]
    assert sqlite["stats"] == memory["stats"]
