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
  time, the three bound dimensions — as the columns of one ``(cap, 5)``
  float64 block over an ``array.array`` buffer, a slot's five floats
  side by side: numpy for the scans, the buffer's own C indexing for
  one-slot reads and writes (a crossing's), which cost a fraction of a
  numpy scalar index;
* the enqueued/merged counters as plain per-slot ints, and one counter
  of slots whose queue is non-empty.

A commit is one short loop over the slot queues, one elementwise
``err += weight``, and a vectorized threshold scan that is *skipped
entirely* when conservative scalar gates (min staleness deadline,
pending-count upper bound, "any finite numerical bound") prove nothing
can trip. Because the queue is the same object in both representations,
restore, merge and split write slots directly: a dyconit is columnar
from creation to removal. A retune sweep (S23, S37) installs a
dyconit's slice of the sweep's bounds in one block write and hands the
sweep its pending slots' error and age, which the sweep checks for all
dyconits at once; a chunk crossing's retune (S33) writes one slot's
three bounds as scalars.

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
  them incrementally, and so does a one-slot bounds write (subscribe,
  unsubscribe, ``set_bounds``, ``rebound_one``) unless it raises a
  bound that holds a minimum; that write and every other mutation just
  mark them dirty, and the next commit (their only reader) recomputes
  them first.

Slot ids are dense: ``unsubscribe`` compacts the columns immediately so
iteration order over slots equals the reference's dict insertion order
(a re-subscribe allocates a fresh slot at the end, exactly like a dict
delete + re-add).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from repro.core.bounds import Bounds
from repro.core.subscription import Subscriber
from repro.core.update import Update

#: Absolute slack (ms) subtracted from the staleness gate so a deadline
#: that rounds at most 1 ulp differently from the reference per-slot
#: ``now - oldest >= bound`` check can never fire *late* (firing early is
#: harmless: an exact vectorized check makes the actual decision).
_GATE_MARGIN_MS = 1e-6

#: Columns of the float block, in order: a slot's floats are
#: ``_floats[5 * slot : 5 * slot + 5]``.
_ERR, _OLDEST, _B_NUM, _B_STALE, _B_ORDER = range(5)

#: What a one-slot retune returns when it checked no queue.
_UNCHECKED = (0, None, None, math.inf)

#: A fresh slot's floats: no error, no pending queue, infinite bounds.
_EMPTY_SLOT = array("d", (0.0, math.inf, math.inf, math.inf, math.inf))


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
    :meth:`commit`, :meth:`drain_due`, :meth:`rebound`,
    :meth:`drain_slots` and :meth:`rebound_one` run on the columns (one
    vectorized add + gated threshold scan per commit). Restore, merge and
    split write slots.
    """

    # Slotted: past 29 attributes CPython stops sharing instance-dict
    # keys, and a private dict per dyconit costs ~1 KiB on worlds of
    # thousands of chunks. Slots are laid out in this order: what a
    # crossing's rebound_one reads comes first, on as few cache lines as
    # it can take.
    __slots__ = (
        "slots", "queues", "_floats", "_gates_dirty", "n_finite_bnum",
        "min_bstale", "min_border", "min_deadline", "n_pending",
        "dyconit_id", "default_bounds", "merging", "total_committed_weight",
        "commit_count", "n", "_cap", "_rows", "_ids", "enq", "mrg",
        "subscriber_by_slot", "_views", "count_ub",
        "_err_v", "_oldest_v", "_block_v", "_sid_v", "_bnum_v", "_bstale_v",
        "_border_v",
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
        self._allocate(8)
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
        # them current itself, as a one-slot bounds write does when it can
        # (_write_bounds) — every other mutation marks them dirty
        self._gates_dirty = False
        self.n_finite_bnum = 0
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
        rows = self._rows[:n]
        self._err_v = rows[:, _ERR]
        self._oldest_v = rows[:, _OLDEST]
        # the three bound columns as the rows of one view: a sweep
        # installs them in one write
        self._block_v = rows[:, _B_NUM:].T
        self._bnum_v, self._bstale_v, self._border_v = self._block_v
        self._sid_v = self._ids[:n]

    def _allocate(self, cap: int) -> None:
        """Point the columns at a fresh ``(cap, 5)`` float block and a
        fresh id column.

        ``_floats`` owns the memory and ``_rows`` is its numpy view:
        ``_floats[5 * slot + column]`` is ``_rows[slot, column]``; ``_ids``
        holds each slot's subscriber id. Only the ``[:n]`` views the scans
        read are kept (a dyconit is small, and worlds hold thousands). An
        exported buffer cannot resize, so growing allocates new ones."""
        self._cap = cap
        self._ids = np.zeros(cap, dtype=np.int64)
        self._floats = array("d", bytes(8 * 5 * cap))
        self._rows = np.ndarray((cap, 5), buffer=self._floats)

    @property
    def err(self) -> np.ndarray:
        """The error column (a view, every slot of the capacity)."""
        return self._rows[:, _ERR]

    @property
    def oldest(self) -> np.ndarray:
        """The oldest-pending-time column (a view; ``inf``: empty)."""
        return self._rows[:, _OLDEST]

    @property
    def b_num(self) -> np.ndarray:
        return self._rows[:, _B_NUM]

    @property
    def b_stale(self) -> np.ndarray:
        return self._rows[:, _B_STALE]

    @property
    def b_order(self) -> np.ndarray:
        return self._rows[:, _B_ORDER]

    def _grow(self) -> None:
        floats, ids = self._floats, self._ids
        self._allocate(2 * self._cap)
        self._floats[: len(floats)] = floats
        self._ids[: len(ids)] = ids

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
            self.min_bstale = math.inf
            self.min_deadline = math.inf
            self.min_border = math.inf
            self.count_ub = 0
            return
        self.n_finite_bnum = int(np.isfinite(self._bnum_v).sum())
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

    def subscriber_ids(self) -> np.ndarray:
        # The id column, kept in slot order beside the slot table (I9
        # checks the two agree).
        return self._sid_v

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
        # An empty queue; infinite bounds move no gate, and the write
        # below counts the slot in.
        self._floats[5 * slot : 5 * slot + 5] = _EMPTY_SLOT
        self._ids[slot] = sub
        self.queues.append({})
        self.enq.append(0)
        self.mrg.append(0)
        self.n += 1
        self._refresh_column_views()
        self.slots[sub] = slot
        self.subscriber_by_slot.append(subscriber)
        if bounds is None:
            bounds = self.default_bounds
        self._write_bounds(slot, bounds.numerical, bounds.staleness_ms, bounds.order)
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
        floats = self._floats
        state = SubscriptionState(
            subscriber=self.subscriber_by_slot.pop(slot),
            bounds=self.bounds_of(slot),
            pending=queue,
            accumulated_error=floats[5 * slot + _ERR],
            oldest_pending_time=floats[5 * slot + _OLDEST] if queue else None,
            enqueued_count=self.enq.pop(slot),
            merged_count=self.mrg.pop(slot),
            merging=self.merging,
        )
        # Infinite bounds take the slot out of the gates' minima and count.
        self._write_bounds(slot, math.inf, math.inf, math.inf)
        n = self.n
        if slot < n - 1:  # an empty slice assignment counts as a resize
            floats, ids = self._floats, self._ids
            floats[5 * slot : 5 * (n - 1)] = floats[5 * (slot + 1) : 5 * n]
            ids[slot : n - 1] = ids[slot + 1 : n]
        self.n = n - 1
        for i in range(slot, self.n):
            self.slots[self.subscriber_by_slot[i].subscriber_id] = i
        self.n_pending -= bool(queue)
        del self._views[subscriber_id]
        self._refresh_column_views()
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
        self._gates_dirty = True  # a restored backlog moves min_deadline and count_ub
        return view

    def bounds_of(self, slot: int) -> Bounds:
        floats, at = self._floats, 5 * slot + _B_NUM
        return Bounds(floats[at], floats[at + 1], floats[at + 2])

    def set_bounds(self, subscriber_id: int, bounds: Bounds) -> None:
        slot = self.slots.get(subscriber_id)
        if slot is None:
            raise KeyError(
                f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
            )
        self._write_bounds(slot, bounds.numerical, bounds.staleness_ms, bounds.order)

    def _write_bounds(
        self, slot: int, numerical: float, staleness: float, order: float
    ) -> None:
        """Write one slot's three bounds and keep clean gates exact in
        O(1) (S37): the finite count moves by the slot's difference, a
        lowered staleness or order bound lowers its minimum (a lowered
        staleness bound also the pending queue's deadline), and a raised
        one leaves them where they are — unless the slot held a minimum,
        which only a recompute can replace. Then, and for a negative or
        NaN bound or minimum, the gates are marked dirty for the next
        commit to recompute, as every other mutation marks them."""
        floats = self._floats
        at = 5 * slot + _B_NUM
        if not self._gates_dirty:
            old = floats[at]
            if numerical != old:
                # ``x - x == 0.0`` is np.isfinite(x): inf - inf and NaN are NaN.
                self.n_finite_bnum += (numerical - numerical == 0.0) - (old - old == 0.0)
            old = floats[at + 1]
            if staleness != old:
                if 0.0 <= staleness < old:
                    if staleness < self.min_bstale:
                        self.min_bstale = staleness
                    deadline = floats[5 * slot + _OLDEST] + staleness  # inf when empty
                    if deadline < self.min_deadline:
                        self.min_deadline = deadline
                elif not (old < staleness and old > self.min_bstale >= 0.0):
                    self._gates_dirty = True
            old = floats[at + 2]
            if order != old:
                if 0.0 <= order < old:
                    if order < self.min_border:
                        self.min_border = order
                elif not (old < order and old > self.min_border >= 0.0):
                    self._gates_dirty = True
        floats[at] = numerical
        floats[at + 1] = staleness
        floats[at + 2] = order

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
        """Drain ``slots`` together: empty their queues and reset their
        error and oldest time through the buffer, no numpy call per
        drain."""
        floats = self._floats
        batches = []
        for slot in slots:
            queue = self.queues[slot]
            if queue:
                self.n_pending -= 1
            batches.append(list(queue.values()))
            queue.clear()
            floats[5 * slot + _ERR] = 0.0
            floats[5 * slot + _OLDEST] = math.inf
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
        # A dyconit's few slots are scanned in Python: cheaper than the
        # fixed cost of a mask, an ``any`` and a ``nonzero``.
        due_at = deadlines.tolist()
        slots = [slot for slot, deadline in enumerate(due_at) if deadline <= now]
        if not slots:
            return examined, [], float(deadlines.min())
        subscribers = self.subscriber_by_slot
        due = [
            (subscribers[slot], due_at[slot], updates)
            for slot, updates in zip(slots, self._drain_slots(slots))
        ]
        deadlines[slots] = math.inf
        # Exact, so the commit-time staleness gate stops firing on the
        # deadlines this pass just served.
        self.min_deadline = next_deadline = float(deadlines.min())
        return examined, due, next_deadline

    def rebound(
        self, slots: Sequence[int], bounds: np.ndarray, check_order: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
        """A retune sweep's install on this dyconit (S23, S37): ``bounds``
        is a ``(3, len(slots))`` block of numerical, staleness and order
        rows for ``slots`` (ascending positions in subscription order),
        written in one block write (a slice when ``slots`` is every slot).

        Returns ``None`` when no queue is pending, else what the sweep's
        one trip check reads, aligned with ``slots``: ``(error, oldest,
        counts)`` — the error column, the oldest pending time (``inf`` for
        an empty queue) and, if ``check_order``, the queue lengths (else
        ``None``: every order bound in the sweep is infinite, S36). The
        arrays may be views of the columns: read them before the next
        mutation. What trips is drained through :meth:`drain_slots`.
        """
        self._gates_dirty = True
        if len(slots) == self.n:  # ascending and as long as the columns
            self._block_v[:] = bounds
            if not self.n_pending:
                return None
            error, oldest = self._err_v, self._oldest_v
            queues = self.queues
        else:
            self._rows[slots, _B_NUM:] = bounds.T
            if not self.n_pending:
                return None
            oldest = self._rows[slots, _OLDEST]
            if not (oldest != math.inf).any():  # inf: an empty queue
                return None
            error = self._rows[slots, _ERR]
            queues = [self.queues[slot] for slot in slots]
        counts = None
        if check_order:
            counts = np.fromiter(map(len, queues), dtype=np.int64, count=len(slots))
        return error, oldest, counts

    def drain_slots(self, slots: list[int]) -> list[tuple[Subscriber, list[Update]]]:
        """Drain the queues at ``slots`` (positions in subscription
        order) together: ``(subscriber, updates)`` per slot, in order."""
        subscribers = self.subscriber_by_slot
        return [
            (subscribers[slot], updates)
            for slot, updates in zip(slots, self._drain_slots(slots))
        ]

    def rebound_one(
        self, subscriber_id: int, numerical: float, staleness: float, order: float, now: float
    ) -> tuple[int, str | None, list[Update] | None, float]:
        """A retune of one subscription, on scalars (a chunk crossing,
        S33): write the three bounds into the subscriber's slot, then
        ``Bounds.tripped_dimension`` on its queue.

        Returns ``(examined, reason, updates, deadline)``: 1 if a pending
        queue was checked, else 0; the tripped dimension and the drained
        updates, or ``None`` twice; and ``oldest + staleness`` of a queue
        left pending (``inf`` otherwise). A subscriber that is not
        subscribed is ``(0, None, None, inf)``.
        """
        slot = self.slots.get(subscriber_id)
        if slot is None:
            return _UNCHECKED
        self._write_bounds(slot, numerical, staleness, order)
        floats = self._floats
        oldest = floats[5 * slot + _OLDEST]
        if oldest == math.inf:  # an empty queue (I9), read off the slot's floats
            return _UNCHECKED
        # tripped_dimension_of's comparisons, in its precedence
        if floats[5 * slot + _ERR] > numerical:
            reason = "numerical"
        elif now - oldest >= staleness != math.inf:
            reason = "staleness"
        elif order != math.inf and len(self.queues[slot]) > order:
            reason = "order"
        else:
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
        floats = self._floats
        if e >= 0:
            old = floats[5 * e + _ERR]
            self._err_v += update.weight
            floats[5 * e + _ERR] = old
        else:
            self._err_v += update.weight
        if became:
            time = update.time
            for slot in became:
                floats[5 * slot + _OLDEST] = time
            self.n_pending += len(became)
            self.min_deadline = min(self.min_deadline, time + self.min_bstale)

        # ---- bound checks: conservative gates, exact vectorized scans
        self.count_ub += 1
        numerical = stale = order = None
        if self.n_finite_bnum:
            numerical = self._err_v > self._bnum_v
            if e >= 0:
                numerical[e] = False
        # min_deadline is inf (or NaN) while no staleness bound is finite.
        if now >= self.min_deadline - _GATE_MARGIN_MS:
            stale =(now - self._oldest_v) >= self._bstale_v
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
            # still pending count. A few slots: read off the buffer.
            became_due = min(
                math.inf,
                *[floats[5 * slot + _OLDEST] + floats[5 * slot + _B_STALE] for slot in became],
            )
        return n_eff, merged_n, became_due, flushed

    def __repr__(self) -> str:
        return (
            f"Dyconit({self.dyconit_id!r}, subscribers={self.subscriber_count}, "
            f"commits={self.commit_count})"
        )
