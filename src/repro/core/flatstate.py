"""Flat columnar subscription state: the batched commit engine (S17).

The legacy commit path walks one Python :class:`SubscriptionState` object
per subscriber per commit — dict insert, float add, bound check, ~124 µs
per commit at 50 subscribers. This module replaces the per-object walk
with a *columnar* store per dyconit:

* one shared, append-only **commit log** of updates (each entry records
  the excluded subscriber, if any, and a back-pointer to the previous
  entry with the same merge key), and
* dense numpy **columns** indexed by slot — numerical-error accumulator,
  oldest-pending time, the three bound dimensions, a log cursor (the
  subscriber's drain point), and pending/enqueued/merged counters.

A commit is then one vectorized float add plus O(1) scalar bookkeeping;
bound checking is a vectorized threshold scan that is *skipped entirely*
when conservative scalar gates (min staleness deadline, order-count
upper bound, "any finite numerical bound") prove nothing can trip.
Pending queues are never materialized on commit: a drain replays the
subscriber's window of the shared log, applying exactly the legacy
delete-then-reinsert merge semantics, and a cohort cache shares that
replay between subscribers with identical windows.

Exactness contract (the differential tests and the fuzz reference model
assert bit-equality, not approximate equality):

* the error column is updated with one elementwise ``+= weight`` per
  commit — the same correctly-rounded float op sequence per slot as the
  legacy per-object ``accumulated_error += weight`` — never a prefix sum
  across updates (float addition is not associative);
* an excluded subscriber's slot is saved and restored around the
  vectorized add (never add-then-subtract, which can change the value);
* counters use an offset trick (column value + shared scalar) so the
  broadcast cases stay O(1) while per-slot values remain exact ints;
* the scalar gates are *conservative only*: they may fire early (an
  exact vectorized re-check decides), never late.

Slot ids are dense: ``unsubscribe`` compacts the columns immediately so
iteration order over slots equals legacy dict insertion order (a
re-subscribe allocates a fresh slot at the end, exactly like a dict
delete + re-add). The log is garbage-collected by a full reset when all
queues are empty and by rebasing off the minimum cursor when more than
half the log is dead.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Hashable

import numpy as np

from repro.core.bounds import Bounds
from repro.core.dyconit import SubscriptionState
from repro.core.subscription import Subscriber
from repro.core.update import Update

#: Absolute slack (ms) subtracted from the staleness gate so a deadline
#: that rounds at most 1 ulp differently from the legacy per-slot
#: ``now - oldest >= bound`` check can never fire *late* (firing early is
#: harmless: an exact vectorized check makes the actual decision).
_GATE_MARGIN_MS = 1e-6

#: The log-rebase check runs whenever the physical log length crosses a
#: multiple of this; the log is sliced when over half of it is behind
#: every cursor.
_COMPACT_CHECK = 2048


class FlatSubscriptionView:
    """A :class:`SubscriptionState`-compatible window onto one slot.

    Views are identity-stable (one per subscriber for the lifetime of the
    subscription) while slots may shift under compaction, so every access
    re-resolves the slot from the subscriber id. A view whose subscriber
    has been unsubscribed degrades to an empty queue.
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
        if slot is None:
            return Bounds.INFINITE
        flat = self._flat
        return Bounds(
            float(flat.b_num[slot]), float(flat.b_stale[slot]), float(flat.b_order[slot])
        )

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
        slot = self._slot()
        if slot is None:
            return {}
        return dict(self._flat.materialize_pairs(slot))

    @property
    def accumulated_error(self) -> float:
        slot = self._slot()
        return 0.0 if slot is None else float(self._flat.err[slot])

    @property
    def oldest_pending_time(self) -> float | None:
        slot = self._slot()
        if slot is None:
            return None
        flat = self._flat
        if int(flat.count[slot]) + flat.count_shared == 0:
            return None
        return float(flat.oldest[slot])

    @property
    def enqueued_count(self) -> int:
        slot = self._slot()
        return 0 if slot is None else int(self._flat.enq[slot]) + self._flat.enq_shared

    @property
    def merged_count(self) -> int:
        slot = self._slot()
        return 0 if slot is None else int(self._flat.mrg[slot]) + self._flat.mrg_shared

    @property
    def has_pending(self) -> bool:
        slot = self._slot()
        if slot is None:
            return False
        return int(self._flat.count[slot]) + self._flat.count_shared > 0

    def oldest_age_ms(self, now: float) -> float:
        oldest = self.oldest_pending_time
        if oldest is None:
            return 0.0
        return now - oldest

    def tripped_dimension(self, now: float) -> str | None:
        slot = self._slot()
        if slot is None:
            return None
        return self._flat.tripped_dimension_slot(slot, now)

    def exceeds_bounds(self, now: float) -> bool:
        return self.tripped_dimension(now) is not None

    def drain(self) -> list[Update]:
        slot = self._slot()
        if slot is None:
            return []
        return self._flat.drain_slot(slot)

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
        # int columns (offset trick: absolute value = column + shared scalar)
        self.cursor = np.zeros(self._cap, dtype=np.int64)
        self.count = np.zeros(self._cap, dtype=np.int64)
        self.enq = np.zeros(self._cap, dtype=np.int64)
        self.mrg = np.zeros(self._cap, dtype=np.int64)
        self.count_shared = 0
        self.enq_shared = 0
        self.mrg_shared = 0
        self._tripbuf = np.zeros(self._cap, dtype=bool)
        # slot membership
        self.slots: dict[int, int] = {}
        self.subscriber_by_slot: list[Subscriber] = []
        self._views: dict[int, FlatSubscriptionView] = {}
        #: subscriber ids whose queue is currently empty (pending count 0)
        self.empty_subs: set[int] = set()
        # shared commit log; ``base`` is the absolute index of log[0]
        self.log: list[Update] = []
        self.log_excl: list[int | None] = []
        self.log_prev: list[int] = []
        self.base = 0
        self.last_key: dict[Hashable, int] = {}
        #: per-subscriber sorted absolute indices of entries excluding them
        self.excl_by_sub: dict[int, list[int]] = {}
        self._drain_cache: tuple[int, int, list[tuple[tuple, Update]]] | None = None
        # conservative scalar gates / aggregates; read only by commit(),
        # so bound changes just mark them dirty (see set_bounds_slot)
        self._gates_dirty = False
        self.max_cursor = 0
        self.min_cursor_lb = 0
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
        self._cursor_v = self.cursor[:n]
        self._count_v = self.count[:n]
        self._trip_v = self._tripbuf[:n]

    def _grow(self) -> None:
        self._cap *= 2
        for name in ("err", "oldest", "b_num", "b_stale", "b_order"):
            old = getattr(self, name)
            fresh = np.zeros(self._cap)
            fresh[: old.size] = old
            setattr(self, name, fresh)
        for name in ("cursor", "count", "enq", "mrg"):
            old = getattr(self, name)
            fresh = np.zeros(self._cap, dtype=np.int64)
            fresh[: old.size] = old
            setattr(self, name, fresh)
        self._tripbuf = np.zeros(self._cap, dtype=bool)

    def refresh_gates(self) -> None:
        """Bring the scalar gates up to date if a bound change left them
        stale. ``commit`` calls this before reading any gate; the auditor
        calls it before checking them."""
        if self._gates_dirty:
            self._recompute_aggregates()

    def _recompute_aggregates(self) -> None:
        self._gates_dirty = False
        n = self.n
        if n == 0:
            end = self.base + len(self.log)
            self.max_cursor = end
            self.min_cursor_lb = end
            self.n_finite_bnum = 0
            self.any_finite_stale = False
            self.min_bstale = math.inf
            self.min_deadline = math.inf
            self.min_border = math.inf
            self.count_ub = 0
            return
        self.n_finite_bnum = int(np.isfinite(self._bnum_v).sum())
        finite_stale = np.isfinite(self._bstale_v)
        self.any_finite_stale = bool(finite_stale.any())
        self.min_bstale = float(self._bstale_v.min())
        self.min_deadline = float((self._oldest_v + self._bstale_v).min())
        self.min_border = float(self._border_v.min())
        counts = self._count_v + self.count_shared
        self.count_ub = int(counts.max())
        self.max_cursor = int(self._cursor_v.max())
        self.min_cursor_lb = int(self._cursor_v.min())

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def subscribe(self, subscriber: Subscriber, bounds: Bounds) -> FlatSubscriptionView:
        sub = subscriber.subscriber_id
        slot = self.slots.get(sub)
        if slot is not None:
            return self._views[sub]
        if self.n == self._cap:
            self._grow()
        slot = self.n
        end = self.base + len(self.log)
        self.err[slot] = 0.0
        self.oldest[slot] = math.inf
        self.b_num[slot] = bounds.numerical
        self.b_stale[slot] = bounds.staleness_ms
        self.b_order[slot] = bounds.order
        self.cursor[slot] = end
        self.count[slot] = -self.count_shared
        self.enq[slot] = -self.enq_shared
        self.mrg[slot] = -self.mrg_shared
        self.n += 1
        self._refresh_column_views()
        self.slots[sub] = slot
        self.subscriber_by_slot.append(subscriber)
        self.empty_subs.add(sub)
        view = FlatSubscriptionView(self, subscriber)
        self._views[sub] = view
        self._recompute_aggregates()
        return view

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        slot = self.slots.pop(subscriber_id, None)
        if slot is None:
            return None
        state = self.materialize_state(slot)
        n = self.n
        for arr in (
            self.err, self.oldest, self.b_num, self.b_stale, self.b_order,
            self.cursor, self.count, self.enq, self.mrg,
        ):
            arr[slot : n - 1] = arr[slot + 1 : n]
        self.n = n - 1
        self.subscriber_by_slot.pop(slot)
        for i in range(slot, self.n):
            self.slots[self.subscriber_by_slot[i].subscriber_id] = i
        self.empty_subs.discard(subscriber_id)
        self._views.pop(subscriber_id, None)
        # excl_by_sub indexes the *log*, not the subscription: retained
        # entries still name this subscriber, and a re-subscribe appends
        # to the same (still-sorted) list. Trim/reset collect it.
        self._refresh_column_views()
        self._recompute_aggregates()
        return state

    def view(self, subscriber_id: int) -> FlatSubscriptionView | None:
        return self._views.get(subscriber_id)

    def views(self) -> list[FlatSubscriptionView]:
        return [
            self._views[sub.subscriber_id] for sub in self.subscriber_by_slot
        ]

    def set_bounds_slot(self, slot: int, bounds: Bounds) -> None:
        self.b_num[slot] = bounds.numerical
        self.b_stale[slot] = bounds.staleness_ms
        self.b_order[slot] = bounds.order
        # A tightened staleness bound can move the earliest deadline
        # before the current gate value, so every gate must be recomputed
        # — but only commit() reads them, and a retune sweep changes the
        # bounds of many slots between two commits. Defer to the next one.
        self._gates_dirty = True

    # ------------------------------------------------------------------
    # Materialization (drains, audits, private-mode conversion)
    # ------------------------------------------------------------------

    def materialize_pairs(self, slot: int) -> list[tuple[tuple, Update]]:
        """Replay this slot's log window into ``(key, update)`` pairs in
        pending-dict order — exactly the legacy enqueue semantics."""
        cur = int(self.cursor[slot])
        start = max(cur, self.base)
        end = self.base + len(self.log)
        if start >= end:
            return []
        sub = self.subscriber_by_slot[slot].subscriber_id
        excl = self.excl_by_sub.get(sub)
        has_excl = bool(excl) and bisect_left(excl, start) < len(excl)
        if not has_excl and self.merging:
            cache = self._drain_cache
            if cache is not None and cache[0] == start and cache[1] == end:
                return cache[2]
        log, log_excl, off = self.log, self.log_excl, self.base
        if self.merging:
            d: dict[tuple, Update] = {}
            for i in range(start - off, len(log)):
                if log_excl[i] == sub:
                    continue
                u = log[i]
                k = u.merge_key
                if k in d:
                    del d[k]
                d[k] = u
            pairs = list(d.items())
            if not has_excl:
                self._drain_cache = (start, end, pairs)
            return pairs
        items = [
            log[i] for i in range(start - off, len(log)) if log_excl[i] != sub
        ]
        start_enq = int(self.enq[slot]) + self.enq_shared - len(items)
        return [((start_enq + i, u.merge_key), u) for i, u in enumerate(items)]

    def materialize_state(self, slot: int) -> SubscriptionState:
        """Build a real :class:`SubscriptionState` mirroring this slot
        (without mutating it)."""
        count = int(self.count[slot]) + self.count_shared
        state = SubscriptionState(
            subscriber=self.subscriber_by_slot[slot],
            bounds=Bounds(
                float(self.b_num[slot]),
                float(self.b_stale[slot]),
                float(self.b_order[slot]),
            ),
            merging=self.merging,
        )
        state.pending = dict(self.materialize_pairs(slot))
        state.accumulated_error = float(self.err[slot])
        state.oldest_pending_time = float(self.oldest[slot]) if count else None
        state.enqueued_count = int(self.enq[slot]) + self.enq_shared
        state.merged_count = int(self.mrg[slot]) + self.mrg_shared
        return state

    def drain_slot(self, slot: int) -> list[Update]:
        return self._drain_slots([slot])[0]

    def _drain_slots(self, slots: list[int]) -> list[list[Update]]:
        """Drain ``slots`` together: one replay per slot (slots with the
        same window share it through the cohort cache), then one
        fancy-indexed reset of their columns."""
        batches = [[u for __, u in self.materialize_pairs(slot)] for slot in slots]
        end = self.base + len(self.log)
        self.cursor[slots] = end
        if end > self.max_cursor:
            self.max_cursor = end
        self.err[slots] = 0.0
        self.count[slots] = -self.count_shared
        self.oldest[slots] = math.inf
        subscribers = self.subscriber_by_slot
        self.empty_subs.update(subscribers[slot].subscriber_id for slot in slots)
        if self.log and len(self.empty_subs) == self.n:
            self._reset_log()
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
        examined = self.n - len(self.empty_subs)
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

    def tripped_dimension_slot(self, slot: int, now: float) -> str | None:
        """Scalar bound check for one slot — byte-identical precedence to
        ``Bounds.tripped_dimension`` via the same code path."""
        count = int(self.count[slot]) + self.count_shared
        if count == 0:
            return None
        bounds = Bounds(
            float(self.b_num[slot]), float(self.b_stale[slot]), float(self.b_order[slot])
        )
        age = now - float(self.oldest[slot])
        return bounds.tripped_dimension(float(self.err[slot]), age, count)

    # ------------------------------------------------------------------
    # Log maintenance
    # ------------------------------------------------------------------

    def _reset_log(self) -> None:
        """All queues are empty: every entry is dead, drop the whole log."""
        self.base += len(self.log)
        self.log.clear()
        self.log_excl.clear()
        self.log_prev.clear()
        self.last_key.clear()
        self.excl_by_sub.clear()
        self._drain_cache = None

    def _advance_excluded_cursors(self) -> None:
        """Advance cursors past window prefixes that replay to nothing.

        The rebase keys off the minimum cursor, so one slot that never
        drains — e.g. a subscriber excluded from every commit, like a
        peer subscriber on a dyconit only its own shard writes to —
        used to pin the whole shared log forever (unbounded memory on
        long runs). Entries a slot can never deliver are dead to it: a
        slot with nothing pending may skip its entire window (pending
        count 0 means every window entry excludes it; a merging
        supersede never empties a window that saw a non-excluded
        entry), and any slot may skip the prefix of window entries
        excluding it. Both moves are replay-neutral —
        :meth:`materialize_pairs` drops excluded entries anyway, and
        the mixed-path merge mask resolves skipped ``prev`` entries to
        the same fresh-enqueue decision via ``_superseded_via_chain`` —
        and they restore the rebase's progress guarantee (auditor check
        I9.log-pinned bounds the dead prefix by the compaction period).
        """
        end = self.base + len(self.log)
        changed = False
        for slot in range(self.n):
            cur = int(self.cursor[slot])
            if cur >= end:
                continue
            if int(self.count[slot]) + self.count_shared == 0:
                self.cursor[slot] = end
                changed = True
                continue
            sub = self.subscriber_by_slot[slot].subscriber_id
            if not self.excl_by_sub.get(sub):
                continue
            log_excl = self.log_excl
            i = max(cur, self.base)
            while i < end and log_excl[i - self.base] == sub:
                i += 1
            if i > cur:
                self.cursor[slot] = i
                changed = True
        if changed:
            # The broadcast-supersede gate needs max_cursor >= every
            # cursor; advancing cursors can raise the true maximum.
            self.max_cursor = int(self._cursor_v.max())

    def _maybe_trim(self) -> None:
        """Rebase the log off the minimum cursor when >half of it is dead."""
        if self.n == 0:
            return
        self._advance_excluded_cursors()
        mc = int(self._cursor_v.min())
        self.min_cursor_lb = mc
        keep_from = mc - self.base
        if keep_from <= len(self.log) // 2:
            return
        del self.log[:keep_from]
        del self.log_excl[:keep_from]
        del self.log_prev[:keep_from]
        self.base = mc
        self.last_key = {k: v for k, v in self.last_key.items() if v >= mc}
        for sub in list(self.excl_by_sub):
            lst = self.excl_by_sub[sub]
            i = bisect_left(lst, mc)
            if i:
                if i >= len(lst):
                    del self.excl_by_sub[sub]
                else:
                    self.excl_by_sub[sub] = lst[i:]
        self._drain_cache = None

    def _superseded_via_chain(self, slot: int, prev: int) -> bool:
        """Does ``slot`` (excluded at log entry ``prev``) still have this
        merge key pending from an earlier occurrence in its window?"""
        cur = int(self.cursor[slot])
        sub = self.subscriber_by_slot[slot].subscriber_id
        j = self.log_prev[prev - self.base]
        while j >= cur and j >= self.base:
            if self.log_excl[j - self.base] != sub:
                return True
            j = self.log_prev[j - self.base]
        return False

    def _mark_pending(self, time: float, exclude_id: int | None) -> list[int]:
        """Transition every empty, non-excluded queue to pending at ``time``."""
        if exclude_id is not None and exclude_id in self.empty_subs:
            became_subs = [s for s in self.empty_subs if s != exclude_id]
            self.empty_subs = {exclude_id}
        else:
            became_subs = list(self.empty_subs)
            self.empty_subs.clear()
        became = []
        for sub in became_subs:
            slot = self.slots[sub]
            self.oldest[slot] = time
            became.append(slot)
        if became and not math.isinf(self.min_bstale):
            cand = time + self.min_bstale
            if cand < self.min_deadline:
                self.min_deadline = cand
        return became

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
        n = self.n
        e = -1
        if exclude_subscriber is not None:
            e = self.slots.get(exclude_subscriber, -1)
        n_eff = n - 1 if e >= 0 else n
        if n_eff <= 0:
            return 0, 0, math.inf, None

        end = self.base + len(self.log)
        merging = self.merging
        prev = -1
        if merging:
            key = update.merge_key
            prev = self.last_key.get(key, -1)
            self.last_key[key] = end
        excl_sub = exclude_subscriber if e >= 0 else None
        self.log.append(update)
        self.log_excl.append(excl_sub)
        self.log_prev.append(prev)
        if excl_sub is not None:
            self.excl_by_sub.setdefault(excl_sub, []).append(end)

        w = update.weight
        err = self.err
        merged_n = 0
        became: list[int] = []
        if prev >= self.max_cursor and prev >= 0 and self.log_excl[prev - self.base] is None:
            # Broadcast-supersede: the previous same-key entry is inside
            # every window and excluded nobody, so every active queue
            # merges. O(1) scalar path — the steady-state hot case.
            merged_n = n_eff
            self.mrg_shared += 1
            self.enq_shared += 1
            if e >= 0:
                self.mrg[e] -= 1
                self.enq[e] -= 1
                old = err[e]
                self._err_v += w
                err[e] = old
            else:
                self._err_v += w
        elif prev < self.min_cursor_lb or not merging:
            # Broadcast-fresh: no queue can hold the key (or merging is
            # off), so every active queue enqueues a new entry. O(1).
            self.count_shared += 1
            self.enq_shared += 1
            if e >= 0:
                self.count[e] -= 1
                self.enq[e] -= 1
                old = err[e]
                self._err_v += w
                err[e] = old
            else:
                self._err_v += w
            if self.empty_subs:
                became = self._mark_pending(update.time, exclude_subscriber)
        else:
            # Mixed: queues whose cursor is past the previous occurrence
            # enqueue fresh, the rest merge. Vectorized per-slot masks.
            mask = self._cursor_v <= prev
            prev_excl = self.log_excl[prev - self.base]
            if prev_excl is not None:
                p = self.slots.get(prev_excl, -1)
                if p >= 0 and mask[p]:
                    mask[p] = self._superseded_via_chain(p, prev)
            mrg_v = self.mrg[:n]
            cnt_v = self._count_v
            np.add(mrg_v, mask, out=mrg_v)
            cnt_v += 1
            np.subtract(cnt_v, mask, out=cnt_v)
            self.enq_shared += 1
            merged_n = int(mask.sum())
            if e >= 0:
                self.enq[e] -= 1
                if mask[e]:
                    self.mrg[e] -= 1
                    merged_n -= 1
                else:
                    self.count[e] -= 1
                old = err[e]
                self._err_v += w
                err[e] = old
            else:
                self._err_v += w
            if self.empty_subs:
                became = self._mark_pending(update.time, exclude_subscriber)

        # Compaction must wait for the accounting above: the stalled-
        # cursor advance treats a zero-count slot's window as all-dead,
        # which is only true once this entry's pending counts are in.
        # (Trimming mid-append once advanced a freshly-flushed slot's
        # cursor past the very entry being committed to it, silently
        # turning the next same-key commit's merge into a fresh enqueue.)
        if len(self.log) % _COMPACT_CHECK == 0:
            self._maybe_trim()

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
            counts = self._count_v + self.count_shared
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
