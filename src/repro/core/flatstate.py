"""Flat columnar subscription state: the batched commit engine (S17).

The reference commit path walks one Python :class:`SubscriptionState`
object per subscriber per commit — dict insert, float add, bound check
through three method calls. This module keeps the reference's queue and
moves everything that is *scanned* into columns, per dyconit:

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
restore, merge and split write slots directly: a columnar dyconit is
columnar from creation to removal. A retune (S23) writes the three bound
columns by fancy indexing and checks only the pending slots.

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

import numpy as np

from repro.core.bounds import Bounds
from repro.core.dyconit import EnqueueResult, SubscriptionState
from repro.core.subscription import Subscriber
from repro.core.update import Update

#: Absolute slack (ms) subtracted from the staleness gate so a deadline
#: that rounds at most 1 ulp differently from the reference per-slot
#: ``now - oldest >= bound`` check can never fire *late* (firing early is
#: harmless: an exact vectorized check makes the actual decision).
_GATE_MARGIN_MS = 1e-6

_FLOAT_COLUMNS = ("err", "oldest", "b_num", "b_stale", "b_order")


class FlatSubscriptionView:
    """A :class:`SubscriptionState`-compatible window onto one slot,
    held to the full state surface of
    :class:`~repro.backends.base.DyconitStateHandle`.

    Views are identity-stable (one per subscriber for the lifetime of the
    subscription) while slots may shift under compaction, so every access
    re-resolves the slot from the subscriber id. A view whose subscriber
    has been unsubscribed reads as an empty queue.
    """

    __slots__ = ("_flat", "subscriber")

    def __init__(self, flat: FlatDyconitState, subscriber: Subscriber) -> None:
        self._flat = flat
        self.subscriber = subscriber

    def _slot(self) -> int | None:
        return self._flat.slots.get(self.subscriber.subscriber_id)

    # -- bounds -------------------------------------------------------
    @property
    def bounds(self) -> Bounds:
        slot = self._slot()
        return Bounds.INFINITE if slot is None else self._flat.bounds_of(slot)

    @bounds.setter
    def bounds(self, bounds: Bounds) -> None:
        slot = self._slot()
        if slot is not None:
            self._flat.set_bounds_slot(slot, bounds)

    @property
    def merging(self) -> bool:
        return self._flat.merging

    # -- queue accounting ---------------------------------------------
    @property
    def pending(self) -> dict[tuple, Update]:
        """The slot's live queue (not a copy), like the reference's."""
        slot = self._slot()
        return {} if slot is None else self._flat.queues[slot]

    @property
    def accumulated_error(self) -> float:
        slot = self._slot()
        return 0.0 if slot is None else float(self._flat.err[slot])

    @property
    def oldest_pending_time(self) -> float | None:
        slot = self._slot()
        if slot is None or not self._flat.queues[slot]:
            return None
        return float(self._flat.oldest[slot])

    @property
    def enqueued_count(self) -> int:
        slot = self._slot()
        return 0 if slot is None else self._flat.enq[slot]

    @property
    def merged_count(self) -> int:
        slot = self._slot()
        return 0 if slot is None else self._flat.mrg[slot]

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
        return None if slot is None else self._flat.tripped_dimension_slot(slot, now)

    def exceeds_bounds(self, now: float) -> bool:
        return self.tripped_dimension(now) is not None

    def enqueue(self, update: Update) -> EnqueueResult:
        return self._flat.enqueue_slot(self._flat.slots[self.subscriber.subscriber_id], update)

    def drain(self) -> list[Update]:
        slot = self._slot()
        return [] if slot is None else self._flat._drain_slots([slot])[0]

    def restore_time_order(self) -> None:
        slot = self._slot()
        if slot is not None:
            self._flat.restore_time_order_slot(slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatSubscriptionView(subscriber={self.subscriber.subscriber_id}, "
            f"slot={self._slot()})"
        )


class FlatDyconitState:
    """Columnar per-subscription state for one dyconit."""

    def __init__(self, merging: bool = True) -> None:
        self.merging = merging
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

    def subscribe(self, subscriber: Subscriber, bounds: Bounds) -> FlatSubscriptionView:
        sub = subscriber.subscriber_id
        if sub in self.slots:
            return self._views[sub]
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
        self.set_bounds_slot(slot, bounds)
        view = self._views[sub] = FlatSubscriptionView(self, subscriber)
        return view

    def restore(self, subscriber: Subscriber, snap) -> FlatSubscriptionView:
        """Recreate a slot from a restart snapshot (S20): floats verbatim,
        the queue as the snapshot's ``(key, update)`` pairs in order."""
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

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        """Remove the slot; its final state leaves as a real
        :class:`SubscriptionState` owning the slot's queue."""
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

    def view(self, subscriber_id: int) -> FlatSubscriptionView | None:
        return self._views.get(subscriber_id)

    def views(self) -> list[FlatSubscriptionView]:
        return [self._views[sub.subscriber_id] for sub in self.subscriber_by_slot]

    def bounds_of(self, slot: int) -> Bounds:
        return Bounds(
            float(self.b_num[slot]), float(self.b_stale[slot]), float(self.b_order[slot])
        )

    def set_bounds_slot(self, slot: int, bounds: Bounds) -> None:
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
    # Drains
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
    ) -> tuple[int, list[tuple[Subscriber, str, list[Update]]], float]:
        """A retune of this dyconit (S23): install new bounds on ``slots``
        (ascending) and drain the pending ones they trip.

        One fancy-indexed write per bound column; then
        ``Bounds.tripped_dimension`` over the pending slots among
        ``slots`` as masks, in its precedence (numerical, then staleness
        ``now - oldest >=``, then order). Returns
        ``(examined, tripped, next_deadline)``: the number of pending
        slots checked, ``(subscriber, reason, updates)`` per drained slot
        in slot order, and the earliest ``oldest + staleness`` among the
        checked slots left pending (``inf`` if none) — what the manager
        lowers the dyconit's due time to.
        """
        # Ascending and as long as the columns: every slot, as a slice.
        index = slice(0, self.n) if len(slots) == self.n else slots
        self.b_num[index] = numerical
        self.b_stale[index] = staleness
        self.b_order[index] = order
        self._gates_dirty = True
        if not self.n_pending:
            return 0, [], math.inf
        oldest = self.oldest[index]
        examined = int(np.count_nonzero(oldest != math.inf))  # inf: an empty slot
        if not examined:
            return 0, [], math.inf
        # An empty slot (error 0, oldest inf, no queue) trips nothing, and
        # a finite age never reaches an infinite staleness bound.
        numerical_trip = self.err[index] > numerical
        staleness_trip = (now - oldest) >= staleness
        tripped = numerical_trip | staleness_trip
        if not np.isinf(order).all():
            counts = np.fromiter(
                (len(self.queues[slot]) for slot in slots), dtype=np.int64, count=len(slots)
            )
            tripped |= counts > order
        deadlines = oldest + staleness  # inf for an empty slot
        hits = np.flatnonzero(tripped).tolist()
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

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit(
        self, update: Update, exclude_subscriber: int | None, now: float
    ) -> tuple[int, int, float, list[tuple[Subscriber, str, list[Update]]] | None]:
        """Enqueue ``update`` for every subscriber except the excluded one.

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
