"""The dyconit: one consistency unit with per-subscriber queues (S17).

Each subscriber of a dyconit has

* its current :class:`~repro.core.bounds.Bounds`,
* a pending-update map keyed by merge key (newest update wins; the
  superseded one is counted as *merged* — a message saved), and
* conit accounting: accumulated numerical error and the timestamp of the
  oldest pending update.

Numerical error accumulates over *every* committed update's weight, not
just the surviving merged ones: merging reduces bytes, never the
inconsistency the subscriber is charged for. This keeps the bound
conservative (optimistic delivery can only be *more* consistent than the
bound promises), matching the conit model the paper builds on.

:class:`Dyconit` keeps that state as columns. The reference commit path
— ``PerObjectDyconit`` in the test suite — walks one Python
:class:`SubscriptionState` object per subscriber per commit — dict
insert, float add, bound check through three method calls. This module
keeps the reference's queue and moves everything that is *scanned* into
columns, per dyconit:

* one ordered ``dict`` per slot — literally the reference's ``pending``
  map (merge key -> newest update, insertion order = commit order), so a
  supersede is the same delete-then-reinsert and a drain is
  ``list(queue.values())``;
* dense numpy **columns** indexed by slot for the five floats a commit
  or a due pass scans — numerical-error accumulator, oldest-pending
  time, the three bound dimensions;
* the enqueued/merged counters as plain per-slot ints, and one counter
  of slots whose queue is non-empty.

A commit is one short loop over the slot queues, one elementwise
``err += weight``, and a vectorized threshold scan that is *skipped
entirely* when conservative scalar gates (min staleness deadline,
pending-count upper bound, "any finite numerical bound") prove nothing
can trip. Because the queue is the same object in both representations,
restore, merge and split write slots directly: a dyconit is columnar
from creation to removal. A retune (S23) writes the three bound
columns by fancy indexing and checks only the pending slots; a chunk
crossing's retune (S33) writes one slot's three bounds as scalars.

Exactness contract (the differential tests and the fuzz reference model
assert bit-equality, not approximate equality):

* the error column is updated with one elementwise ``+= weight`` per
  commit — the same correctly-rounded float op sequence per slot as the
  reference ``accumulated_error += weight`` — never a prefix sum across
  updates (float addition is not associative);
* an excluded subscriber's slot is saved and restored around the
  vectorized add (never add-then-subtract, which can change the value);
* the scalar gates are *conservative only*: they may fire early (an
  exact vectorized re-check decides), never late. ``commit`` maintains
  them incrementally; every other mutation just marks them dirty and
  the next commit (their only reader) recomputes them first.

Slot ids are dense: ``unsubscribe`` compacts the columns immediately so
iteration order over slots equals the reference's dict insertion order
(a re-subscribe allocates a fresh slot at the end, exactly like a dict
delete + re-add).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, NamedTuple

import numpy as np

from repro.core.bounds import Bounds, tripped_dimension_of
from repro.core.subscription import Subscriber
from repro.core.update import Update

#: Absolute slack (ms) subtracted from the staleness gate so a deadline
#: that rounds at most 1 ulp differently from the reference per-slot
#: ``now - oldest >= bound`` check can never fire *late* (firing early is
#: harmless: an exact vectorized check makes the actual decision).
_GATE_MARGIN_MS = 1e-6

_FLOAT_COLUMNS = ("err", "oldest", "b_num", "b_stale", "b_order")


class EnqueueResult(NamedTuple):
    """What happened when an update was queued for one subscriber."""

    superseded: bool  # replaced an older update with the same merge key
    became_pending: bool  # queue transitioned empty -> non-empty


@dataclass
class SubscriptionState:
    """Per-(dyconit, subscriber) queue and error accounting, as one
    object: the record :meth:`Dyconit.unsubscribe` hands back, and the
    per-object reference the columns are held to."""

    subscriber: Subscriber
    bounds: Bounds
    pending: dict[tuple, Update] = field(default_factory=dict)
    accumulated_error: float = 0.0
    oldest_pending_time: float | None = None
    enqueued_count: int = 0
    merged_count: int = 0
    #: E8(a) ablation switch: with merging off, every queued update keeps a
    #: unique key so nothing is ever superseded.
    merging: bool = True

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    def oldest_age_ms(self, now: float) -> float:
        if self.oldest_pending_time is None:
            return 0.0
        return now - self.oldest_pending_time

    def enqueue(self, update: Update) -> EnqueueResult:
        """Queue ``update``, merging over any older same-key update.

        A merge deletes the superseded entry before reinserting so the
        survivor moves to the *end* of the dict: insertion order stays
        commit-time order, which is what lets :meth:`drain` skip sorting.
        """
        key = update.merge_key if self.merging else (self.enqueued_count, update.merge_key)
        superseded = key in self.pending
        if superseded:
            del self.pending[key]
            self.merged_count += 1
        self.pending[key] = update
        self.accumulated_error += update.weight
        self.enqueued_count += 1
        became_pending = self.oldest_pending_time is None
        if became_pending:
            self.oldest_pending_time = update.time
        return EnqueueResult(superseded=superseded, became_pending=became_pending)

    def exceeds_bounds(self, now: float) -> bool:
        return self.tripped_dimension(now) is not None

    def tripped_dimension(self, now: float) -> str | None:
        """Which bound dimension the queue currently violates, if any.

        The flush paths use this both as the flush predicate and as the
        recorded flush reason, so reason accounting can never disagree
        with the decision to flush.
        """
        if not self.pending:
            return None
        return self.bounds.tripped_dimension(
            self.accumulated_error, self.oldest_age_ms(now), len(self.pending)
        )

    def drain(self) -> list[Update]:
        """Remove and return pending updates in commit-time order.

        Sort-free: :meth:`enqueue` keeps dict insertion order equal to
        commit order (merges delete-then-reinsert), and commits arrive
        with nondecreasing sim time, so a flush is O(n) instead of
        O(n log n). The one writer that can break the order — a
        cross-queue dyconit merge — calls :meth:`restore_time_order`.
        """
        updates = list(self.pending.values())
        self.pending.clear()
        self.accumulated_error = 0.0
        self.oldest_pending_time = None
        return updates

    def restore_time_order(self) -> None:
        """Re-sort pending into commit-time order after a cross-queue merge.

        Moving another subscription's backlog into this one appends
        updates that may predate entries already queued here; one stable
        sort restores the invariant :meth:`drain` relies on. Only the
        (rare, policy-driven) repartitioning path pays this cost.
        """
        items = sorted(self.pending.items(), key=lambda item: item[1].time)
        self.pending.clear()
        self.pending.update(items)
        if items:
            # The moved backlog may be older than this queue's previous
            # head; staleness accounting must age from the true oldest.
            # (Only ever moved earlier: a superseded update's time may
            # legitimately predate every surviving entry.)
            first_time = items[0][1].time
            if self.oldest_pending_time is None or first_time < self.oldest_pending_time:
                self.oldest_pending_time = first_time


class FlatSubscriptionView:
    """A :class:`SubscriptionState`-compatible window onto one slot,
    held to the full state surface of
    :class:`~repro.backends.base.DyconitStateHandle`.

    Views are identity-stable (one per subscriber for the lifetime of the
    subscription) while slots may shift under compaction, so every access
    re-resolves the slot from the subscriber id. A view whose subscriber
    has been unsubscribed reads as an empty queue.
    """

    __slots__ = ("_dyconit", "subscriber")

    def __init__(self, dyconit: Dyconit, subscriber: Subscriber) -> None:
        self._dyconit = dyconit
        self.subscriber = subscriber

    def _slot(self) -> int | None:
        return self._dyconit.slots.get(self.subscriber.subscriber_id)

    # -- bounds -------------------------------------------------------
    @property
    def bounds(self) -> Bounds:
        slot = self._slot()
        return Bounds.INFINITE if slot is None else self._dyconit.bounds_of(slot)

    @bounds.setter
    def bounds(self, bounds: Bounds) -> None:
        if self._slot() is not None:
            self._dyconit.set_bounds(self.subscriber.subscriber_id, bounds)

    @property
    def merging(self) -> bool:
        return self._dyconit.merging

    # -- queue accounting ---------------------------------------------
    @property
    def pending(self) -> dict[tuple, Update]:
        """The slot's live queue (not a copy), like the reference's."""
        slot = self._slot()
        return {} if slot is None else self._dyconit.queues[slot]

    @property
    def accumulated_error(self) -> float:
        slot = self._slot()
        return 0.0 if slot is None else float(self._dyconit.err[slot])

    @property
    def oldest_pending_time(self) -> float | None:
        slot = self._slot()
        if slot is None or not self._dyconit.queues[slot]:
            return None
        return float(self._dyconit.oldest[slot])

    @property
    def enqueued_count(self) -> int:
        slot = self._slot()
        return 0 if slot is None else self._dyconit.enq[slot]

    @property
    def merged_count(self) -> int:
        slot = self._slot()
        return 0 if slot is None else self._dyconit.mrg[slot]

    @property
    def has_pending(self) -> bool:
        return bool(self.pending)

    def oldest_age_ms(self, now: float) -> float:
        oldest = self.oldest_pending_time
        if oldest is None:
            return 0.0
        return now - oldest

    def tripped_dimension(self, now: float) -> str | None:
        slot = self._slot()
        return None if slot is None else self._dyconit.tripped_dimension_slot(slot, now)

    def exceeds_bounds(self, now: float) -> bool:
        return self.tripped_dimension(now) is not None

    def enqueue(self, update: Update) -> EnqueueResult:
        return self._dyconit.enqueue_slot(
            self._dyconit.slots[self.subscriber.subscriber_id], update
        )

    def drain(self) -> list[Update]:
        slot = self._slot()
        return [] if slot is None else self._dyconit._drain_slots([slot])[0]

    def restore_time_order(self) -> None:
        slot = self._slot()
        if slot is not None:
            self._dyconit.restore_time_order_slot(slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatSubscriptionView(subscriber={self.subscriber.subscriber_id}, "
            f"slot={self._slot()})"
        )


class Dyconit:
    """One consistency unit covering a partition of the game world: its
    identity and hotness accounting over the per-subscription columns.

    Subscription accessors return :class:`FlatSubscriptionView` objects
    that are drop-in compatible with :class:`SubscriptionState`;
    :meth:`commit`, :meth:`drain_due`, :meth:`rebound` and
    :meth:`rebound_one` run on the columns (one vectorized add + gated
    threshold scan per commit). Restore, merge and split write slots.
    """

    # Slotted: past 29 attributes CPython stops sharing instance-dict
    # keys, and a private dict per dyconit costs ~1 KiB on worlds of
    # thousands of chunks.
    __slots__ = (
        "dyconit_id", "default_bounds", "merging", "total_committed_weight",
        "commit_count", "n", "_cap", *_FLOAT_COLUMNS, "_tripbuf", "queues",
        "enq", "mrg", "n_pending", "slots", "subscriber_by_slot", "_views",
        "_gates_dirty", "n_finite_bnum", "any_finite_stale", "min_bstale",
        "min_deadline", "min_border", "count_ub", "_err_v", "_oldest_v",
        "_bnum_v", "_bstale_v", "_border_v", "_trip_v",
    )

    def __init__(
        self,
        dyconit_id: Hashable,
        default_bounds: Bounds = Bounds.ZERO,
        merging: bool = True,
    ) -> None:
        self.dyconit_id = dyconit_id
        self.default_bounds = default_bounds
        self.merging = merging
        #: Total weight ever committed; a measure of how "hot" this unit
        #: is, used by workload-aware policies.
        self.total_committed_weight = 0.0
        self.commit_count = 0
        self.n = 0
        self._cap = 8
        # float columns
        self.err = np.zeros(self._cap)
        self.oldest = np.full(self._cap, math.inf)
        self.b_num = np.zeros(self._cap)
        self.b_stale = np.zeros(self._cap)
        self.b_order = np.zeros(self._cap)
        self._tripbuf = np.zeros(self._cap, dtype=bool)
        # per-slot queue and counters, parallel to the columns
        self.queues: list[dict[tuple, Update]] = []
        self.enq: list[int] = []
        self.mrg: list[int] = []
        #: number of slots whose queue is non-empty
        self.n_pending = 0
        # slot membership
        self.slots: dict[int, int] = {}
        self.subscriber_by_slot: list[Subscriber] = []
        self._views: dict[int, FlatSubscriptionView] = {}
        # conservative scalar gates; read only by commit(), which keeps
        # them current itself — every other mutation marks them dirty
        self._gates_dirty = False
        self.n_finite_bnum = 0
        self.any_finite_stale = False
        self.min_bstale = math.inf
        self.min_deadline = math.inf
        self.min_border = math.inf
        self.count_ub = 0
        self._refresh_column_views()

    # ------------------------------------------------------------------
    # Internal array management
    # ------------------------------------------------------------------

    def _refresh_column_views(self) -> None:
        n = self.n
        self._err_v = self.err[:n]
        self._oldest_v = self.oldest[:n]
        self._bnum_v = self.b_num[:n]
        self._bstale_v = self.b_stale[:n]
        self._border_v = self.b_order[:n]
        self._trip_v = self._tripbuf[:n]

    def _grow(self) -> None:
        self._cap *= 2
        for name in _FLOAT_COLUMNS:
            old = getattr(self, name)
            fresh = np.zeros(self._cap)
            fresh[: old.size] = old
            setattr(self, name, fresh)
        self._tripbuf = np.zeros(self._cap, dtype=bool)

    def refresh_gates(self) -> None:
        """Bring the scalar gates up to date if a mutation left them
        stale. ``commit`` calls this before reading any gate; the auditor
        calls it before checking them."""
        if self._gates_dirty:
            self._recompute_aggregates()

    def _recompute_aggregates(self) -> None:
        self._gates_dirty = False
        if self.n == 0:
            self.n_finite_bnum = 0
            self.any_finite_stale = False
            self.min_bstale = math.inf
            self.min_deadline = math.inf
            self.min_border = math.inf
            self.count_ub = 0
            return
        self.n_finite_bnum = int(np.isfinite(self._bnum_v).sum())
        self.any_finite_stale = bool(np.isfinite(self._bstale_v).any())
        self.min_bstale = float(self._bstale_v.min())
        self.min_deadline = float((self._oldest_v + self._bstale_v).min())
        self.min_border = float(self._border_v.min())
        self.count_ub = max(map(len, self.queues))

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    @property
    def subscriber_count(self) -> int:
        return self.n

    def subscriber_ids(self) -> Iterable[int]:
        # ``slots`` is in slot order: subscribe appends a key, unsubscribe
        # pops one and renumbers the rest in place (I9 checks it).
        return self.slots.keys()

    def subscription_states(self) -> list[FlatSubscriptionView]:
        return [self._views[sub.subscriber_id] for sub in self.subscriber_by_slot]

    def is_subscribed(self, subscriber_id: int) -> bool:
        return subscriber_id in self.slots

    def subscribe(
        self, subscriber: Subscriber, bounds: Bounds | None = None
    ) -> FlatSubscriptionView:
        """Add ``subscriber``; idempotent (re-subscribing keeps the queue)."""
        sub = subscriber.subscriber_id
        view = self._views.get(sub)
        if view is not None:
            if bounds is not None:
                view.bounds = bounds
            return view
        if self.n == self._cap:
            self._grow()
        slot = self.n
        self.err[slot] = 0.0
        self.oldest[slot] = math.inf
        self.queues.append({})
        self.enq.append(0)
        self.mrg.append(0)
        self.n += 1
        self._refresh_column_views()
        self.slots[sub] = slot
        self.subscriber_by_slot.append(subscriber)
        self.set_bounds(sub, bounds if bounds is not None else self.default_bounds)
        view = self._views[sub] = FlatSubscriptionView(self, subscriber)
        return view

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        """Remove the subscription; returns its final state (with any
        still-pending updates) so the caller can decide to flush or drop.
        The state leaves as a real :class:`SubscriptionState` owning the
        slot's queue, and the columns compact behind it."""
        slot = self.slots.pop(subscriber_id, None)
        if slot is None:
            return None
        queue = self.queues.pop(slot)
        state = SubscriptionState(
            subscriber=self.subscriber_by_slot.pop(slot),
            bounds=self.bounds_of(slot),
            pending=queue,
            accumulated_error=float(self.err[slot]),
            oldest_pending_time=float(self.oldest[slot]) if queue else None,
            enqueued_count=self.enq.pop(slot),
            merged_count=self.mrg.pop(slot),
            merging=self.merging,
        )
        n = self.n
        for name in _FLOAT_COLUMNS:
            arr = getattr(self, name)
            arr[slot : n - 1] = arr[slot + 1 : n]
        self.n = n - 1
        for i in range(slot, self.n):
            self.slots[self.subscriber_by_slot[i].subscriber_id] = i
        self.n_pending -= bool(queue)
        del self._views[subscriber_id]
        self._refresh_column_views()
        self._gates_dirty = True
        return state

    def get_state(self, subscriber_id: int) -> FlatSubscriptionView | None:
        return self._views.get(subscriber_id)

    def restore_subscription(self, subscriber: Subscriber, snap) -> FlatSubscriptionView:
        """Recreate a subscription from a restart snapshot (S20).

        Fields are copied verbatim — replaying through
        :meth:`SubscriptionState.enqueue` would recompute
        ``accumulated_error`` without the superseded updates' weights:
        floats into the slot's columns, the queue as the snapshot's
        ``(key, update)`` pairs in order.
        """
        if self.is_subscribed(subscriber.subscriber_id):
            raise ValueError(
                f"subscriber {subscriber.subscriber_id} already subscribed "
                f"to {self.dyconit_id!r}"
            )
        view = self.subscribe(subscriber, snap.bounds)
        slot = self.slots[subscriber.subscriber_id]
        self.queues[slot] = dict(snap.pending)
        self.err[slot] = snap.accumulated_error
        if snap.oldest_pending_time is not None:
            self.oldest[slot] = snap.oldest_pending_time
        self.enq[slot] = snap.enqueued_count
        self.mrg[slot] = snap.merged_count
        self.n_pending += bool(snap.pending)
        return view

    def bounds_of(self, slot: int) -> Bounds:
        return Bounds(
            float(self.b_num[slot]), float(self.b_stale[slot]), float(self.b_order[slot])
        )

    def set_bounds(self, subscriber_id: int, bounds: Bounds) -> None:
        slot = self.slots.get(subscriber_id)
        if slot is None:
            raise KeyError(
                f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
            )
        self.b_num[slot] = bounds.numerical
        self.b_stale[slot] = bounds.staleness_ms
        self.b_order[slot] = bounds.order
        # A tightened staleness bound can move the earliest deadline
        # before the current gate value, so every gate must be recomputed
        # — but only commit() reads them, and bounds may change on many
        # slots between two commits. Defer to the next one.
        self._gates_dirty = True

    # ------------------------------------------------------------------
    # One slot: the state surface behind FlatSubscriptionView
    # ------------------------------------------------------------------

    def enqueue_slot(self, slot: int, update: Update) -> EnqueueResult:
        """``SubscriptionState.enqueue`` on one slot (repartitioning and
        direct callers; the manager's commits go through :meth:`commit`)."""
        queue = self.queues[slot]
        became_pending = not queue
        key = update.merge_key if self.merging else (self.enq[slot], update.merge_key)
        superseded = key in queue
        if superseded:
            del queue[key]
            self.mrg[slot] += 1
        queue[key] = update
        self.err[slot] += update.weight
        self.enq[slot] += 1
        if became_pending:
            self.oldest[slot] = update.time
            self.n_pending += 1
        self._gates_dirty = True
        return EnqueueResult(superseded=superseded, became_pending=became_pending)

    def restore_time_order_slot(self, slot: int) -> None:
        """``SubscriptionState.restore_time_order`` on one slot."""
        queue = self.queues[slot]
        items = sorted(queue.items(), key=lambda item: item[1].time)
        queue.clear()
        queue.update(items)
        if items and items[0][1].time < self.oldest[slot]:
            self.oldest[slot] = items[0][1].time
            self._gates_dirty = True

    def tripped_dimension_slot(self, slot: int, now: float) -> str | None:
        """Scalar bound check for one slot — byte-identical precedence to
        ``Bounds.tripped_dimension`` via the same code path."""
        count = len(self.queues[slot])
        if count == 0:
            return None
        age = now - float(self.oldest[slot])
        return self.bounds_of(slot).tripped_dimension(float(self.err[slot]), age, count)

    # ------------------------------------------------------------------
    # The batched surface: commit, due pass, retune
    # ------------------------------------------------------------------

    def _drain_slots(self, slots: list[int]) -> list[list[Update]]:
        """Drain ``slots`` together: empty their queues, then one
        fancy-indexed reset of their columns."""
        batches = []
        for slot in slots:
            queue = self.queues[slot]
            if queue:
                self.n_pending -= 1
            batches.append(list(queue.values()))
            queue.clear()
        self.err[slots] = 0.0
        self.oldest[slots] = math.inf
        return batches

    def drain_due(
        self, now: float
    ) -> tuple[int, list[tuple[Subscriber, float, list[Update]]], float]:
        """The due pass over this dyconit (S22): drain every pending slot
        whose ``oldest + staleness`` is ``<= now``.

        Returns ``(examined, due, next_deadline)``: the number of pending
        slots the pass looked at, ``(subscriber, deadline, updates)`` per
        drained slot in slot order, and the exact earliest deadline among
        the queues still pending (``inf`` if none has a finite one).
        """
        if self.n == 0:
            return 0, [], math.inf
        examined = self.n_pending
        deadlines = self._oldest_v + self._bstale_v  # inf for an empty slot
        due_mask = deadlines <= now
        if not due_mask.any():
            return examined, [], float(deadlines.min())
        slots = np.nonzero(due_mask)[0].tolist()
        due_at = deadlines[slots].tolist()
        subscribers = self.subscriber_by_slot
        due = [
            (subscribers[slot], deadline, updates)
            for slot, deadline, updates in zip(slots, due_at, self._drain_slots(slots))
        ]
        deadlines[slots] = math.inf
        # Exact, so the commit-time staleness gate stops firing on the
        # deadlines this pass just served.
        self.min_deadline = next_deadline = float(deadlines.min())
        return examined, due, next_deadline

    def rebound(
        self,
        slots: list[int],
        numerical: np.ndarray,
        staleness: np.ndarray,
        order: np.ndarray,
        now: float,
        check_order: bool = True,
    ) -> tuple[int, list[tuple[Subscriber, str, list[Update]]], float]:
        """A retune of this dyconit (S23): install new bounds on ``slots``
        (ascending positions in subscription order) and drain the pending
        queues they trip.

        One fancy-indexed write per bound column (a slice when ``slots``
        is every slot); then ``Bounds.tripped_dimension`` over the
        pending slots among ``slots`` as masks, in its precedence
        (numerical, then staleness ``now - oldest >=``, then order).
        ``check_order=False`` says every order bound in the sweep is
        infinite, so no queue is counted (S36). Returns
        ``(examined, tripped, next_deadline)``: the number of pending
        slots checked, ``(subscriber, reason, updates)`` per drained slot
        in slot order, and the earliest ``oldest + staleness`` among the
        checked slots left pending (``inf`` if none) — what the manager
        lowers the dyconit's due time to.
        """
        self._gates_dirty = True
        # Ascending and as long as the columns: every slot, as a slice.
        every_slot = len(slots) == self.n
        if every_slot:
            self._bnum_v[:] = numerical
            self._bstale_v[:] = staleness
            self._border_v[:] = order
        else:
            self.b_num[slots] = numerical
            self.b_stale[slots] = staleness
            self.b_order[slots] = order
        if not self.n_pending:
            return 0, [], math.inf
        if every_slot:
            error, oldest = self._err_v, self._oldest_v
            examined = self.n_pending
        else:
            error, oldest = self.err[slots], self.oldest[slots]
            examined = int(np.count_nonzero(oldest != math.inf))  # inf: an empty slot
            if not examined:
                return 0, [], math.inf
        # An empty slot (error 0, oldest inf, no queue) trips nothing, and
        # a finite age never reaches an infinite staleness bound.
        numerical_trip = error > numerical
        staleness_trip = (now - oldest) >= staleness
        tripped = numerical_trip | staleness_trip
        if check_order:
            counts = np.fromiter(
                (len(self.queues[slot]) for slot in slots), dtype=np.int64, count=len(slots)
            )
            tripped |= counts > order
        deadlines = oldest + staleness  # inf for an empty slot
        hits = tripped.nonzero()[0].tolist()
        drained = []
        if hits:
            deadlines[hits] = math.inf
            at = [slots[i] for i in hits]
            subscribers = self.subscriber_by_slot
            for i, slot, updates in zip(hits, at, self._drain_slots(at)):
                if numerical_trip[i]:
                    reason = "numerical"
                elif staleness_trip[i]:
                    reason = "staleness"
                else:
                    reason = "order"
                drained.append((subscribers[slot], reason, updates))
        # fmin skips a NaN deadline, as the scalar ``<`` comparisons do.
        next_deadline = float(np.fmin.reduce(deadlines, initial=math.inf))
        return examined, drained, next_deadline

    def rebound_one(
        self, subscriber_id: int, numerical: float, staleness: float, order: float, now: float
    ) -> tuple[int, str | None, list[Update] | None, float]:
        """:meth:`rebound` for one subscription, on scalars (a chunk
        crossing, S33): write the three bounds into the subscriber's slot,
        then ``Bounds.tripped_dimension`` on its queue.

        Returns ``(examined, reason, updates, deadline)``: 1 if a pending
        queue was checked, else 0; the tripped dimension and the drained
        updates, or ``None`` twice; and ``oldest + staleness`` of a queue
        left pending (``inf`` otherwise). A subscriber that is not
        subscribed is ``(0, None, None, inf)``.
        """
        slot = self.slots.get(subscriber_id)
        if slot is None:
            return 0, None, None, math.inf
        self.b_num[slot] = numerical
        self.b_stale[slot] = staleness
        self.b_order[slot] = order
        self._gates_dirty = True
        queue = self.queues[slot]
        if not queue:
            return 0, None, None, math.inf
        oldest = self.oldest.item(slot)
        reason = tripped_dimension_of(
            self.err.item(slot), now - oldest, len(queue), numerical, staleness, order
        )
        if reason is None:
            return 1, None, None, oldest + staleness
        return 1, reason, self._drain_slots([slot])[0], math.inf

    def commit(
        self, update: Update, exclude_subscriber: int | None, now: float
    ) -> tuple[int, int, float, list[tuple[Subscriber, str, list[Update]]] | None]:
        """Enqueue ``update`` for every subscriber but ``exclude_subscriber``
        (a player does not need its own action echoed back) and drain the
        queues it pushes over a bound.

        Returns ``(n_enqueued, n_merged, became_due, flushed)``.
        ``became_due`` is the earliest ``oldest + staleness`` among the
        queues this commit turned pending and left pending (``inf`` if
        there is none) — what the manager lowers the dyconit's due time
        to. ``flushed`` is ``None`` in the common nothing-tripped case,
        else ``(subscriber, reason, updates)`` per queue this commit
        pushed over a bound, already drained, in slot order.
        """
        self.refresh_gates()
        e = -1
        if exclude_subscriber is not None:
            e = self.slots.get(exclude_subscriber, -1)
        n_eff = self.n - 1 if e >= 0 else self.n
        if n_eff <= 0:
            return 0, 0, math.inf, None
        # Hotness accounting counts commits that actually enqueued for
        # someone: a commit with no subscribers (or only the excluded
        # originator) changed nobody's inconsistency and must not make
        # the unit look hot to the policy.
        self.total_committed_weight += update.weight
        self.commit_count += 1

        # ---- queues: SubscriptionState.enqueue per slot, minus the float
        key = update.merge_key
        enq = self.enq
        merged_n = 0
        became: list[int] = []
        if self.merging:
            mrg = self.mrg
            for slot, queue in enumerate(self.queues):
                if slot == e:
                    continue
                if key in queue:
                    del queue[key]
                    mrg[slot] += 1
                    merged_n += 1
                elif not queue:
                    became.append(slot)
                queue[key] = update
                enq[slot] += 1
        else:
            for slot, queue in enumerate(self.queues):
                if slot == e:
                    continue
                if not queue:
                    became.append(slot)
                queue[(enq[slot], key)] = update
                enq[slot] += 1

        # ---- columns: one elementwise add, the excluded slot untouched
        err = self.err
        if e >= 0:
            old = err[e]
            self._err_v += update.weight
            err[e] = old
        else:
            self._err_v += update.weight
        if became:
            self.oldest[became] = update.time
            self.n_pending += len(became)
            self.min_deadline = min(self.min_deadline, update.time + self.min_bstale)

        # ---- bound checks: conservative gates, exact vectorized scans
        self.count_ub += 1
        numerical = stale = order = None
        if self.n_finite_bnum:
            numerical = np.greater(self._err_v, self._bnum_v, out=self._trip_v)
            if e >= 0:
                numerical[e] = False
        if self.any_finite_stale and now >= self.min_deadline - _GATE_MARGIN_MS:
            stale = (now - self._oldest_v) >= self._bstale_v
            # Conservative refresh (uses pre-drain oldest values; a drain
            # below only moves the true minimum later, so stale-low is
            # safe and self-corrects at the next gate fire).
            self.min_deadline = float((self._oldest_v + self._bstale_v).min())
            if e >= 0:
                stale[e] = False
        if self.count_ub > self.min_border:
            counts = np.fromiter(map(len, self.queues), dtype=np.int64, count=self.n)
            self.count_ub = int(counts.max())
            order = counts > self._border_v
            if e >= 0:
                order[e] = False

        # ``Bounds.tripped_dimension``'s precedence: a later mask here
        # overwrites an earlier one's reason.
        reasons: dict[int, str] = {}
        for mask, reason in (
            (order, "order"), (stale, "staleness"), (numerical, "numerical")
        ):
            if mask is not None:
                for slot in mask.nonzero()[0].tolist():
                    reasons[slot] = reason
        flushed = None
        if reasons:
            slots = sorted(reasons)
            subscribers = self.subscriber_by_slot
            flushed = [
                (subscribers[slot], reasons[slot], updates)
                for slot, updates in zip(slots, self._drain_slots(slots))
            ]
        became_due = math.inf
        if became and not math.isinf(self.min_bstale):
            # Drained above means ``oldest`` is inf again: only queues
            # still pending count.
            became_due = float((self.oldest[became] + self.b_stale[became]).min())
        return n_eff, merged_n, became_due, flushed

    def __repr__(self) -> str:
        return (
            f"Dyconit({self.dyconit_id!r}, subscribers={self.subscriber_count}, "
            f"commits={self.commit_count})"
        )
