"""The dyconit: one consistency unit with per-subscriber queues.

Each subscriber of a dyconit has a :class:`SubscriptionState` holding

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, NamedTuple

from repro.core.bounds import Bounds
from repro.core.subscription import Subscriber
from repro.core.update import Update


class EnqueueResult(NamedTuple):
    """What happened when an update was queued for one subscriber."""

    superseded: bool  # replaced an older update with the same merge key
    became_pending: bool  # queue transitioned empty -> non-empty


@dataclass
class SubscriptionState:
    """Per-(dyconit, subscriber) queue and error accounting."""

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


class Dyconit:
    """One consistency unit covering a partition of the game world.

    With ``flat=True`` the per-subscription state lives in a columnar
    :class:`~repro.core.flatstate.FlatDyconitState` (S17): subscription
    accessors return :class:`~repro.core.flatstate.FlatSubscriptionView`
    objects that are drop-in compatible with :class:`SubscriptionState`,
    and :meth:`commit`, :meth:`drain_due` and :meth:`rebound` forward to
    the columns (one vectorized add + gated threshold scan per commit).
    ``flat=False`` keeps per-object states and runs those three as walks
    over them — the test-only ``per-object`` reference store (S25). The
    representation is fixed at construction: restore, merge and split
    write slots, so a columnar dyconit stays columnar until removed.
    """

    def __init__(
        self,
        dyconit_id: Hashable,
        default_bounds: Bounds = Bounds.ZERO,
        merging: bool = True,
        flat: bool = False,
    ) -> None:
        self.dyconit_id = dyconit_id
        self.default_bounds = default_bounds
        self.merging = merging
        self._subscriptions: dict[int, SubscriptionState] = {}
        self._flat = None
        if flat:
            # Deferred import: flatstate imports SubscriptionState from
            # this module.
            from repro.core.flatstate import FlatDyconitState

            self._flat = FlatDyconitState(merging=merging)
        #: Total weight ever committed; a measure of how "hot" this unit
        #: is, used by workload-aware policies.
        self.total_committed_weight = 0.0
        self.commit_count = 0

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    @property
    def subscriber_count(self) -> int:
        if self._flat is not None:
            return self._flat.n
        return len(self._subscriptions)

    def subscribers(self) -> list[Subscriber]:
        if self._flat is not None:
            return list(self._flat.subscriber_by_slot)
        return [state.subscriber for state in self._subscriptions.values()]

    def subscription_states(self) -> list[SubscriptionState]:
        if self._flat is not None:
            return self._flat.views()
        return list(self._subscriptions.values())

    def is_subscribed(self, subscriber_id: int) -> bool:
        if self._flat is not None:
            return subscriber_id in self._flat.slots
        return subscriber_id in self._subscriptions

    def subscribe(self, subscriber: Subscriber, bounds: Bounds | None = None) -> SubscriptionState:
        """Add ``subscriber``; idempotent (re-subscribing keeps the queue)."""
        if self._flat is not None:
            flat = self._flat
            existing = flat.view(subscriber.subscriber_id)
            if existing is not None:
                if bounds is not None:
                    existing.bounds = bounds
                return existing
            return flat.subscribe(
                subscriber, bounds if bounds is not None else self.default_bounds
            )
        state = self._subscriptions.get(subscriber.subscriber_id)
        if state is not None:
            if bounds is not None:
                state.bounds = bounds
            return state
        state = SubscriptionState(
            subscriber=subscriber,
            bounds=bounds if bounds is not None else self.default_bounds,
            merging=self.merging,
        )
        self._subscriptions[subscriber.subscriber_id] = state
        return state

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        """Remove the subscription; returns its final state (with any
        still-pending updates) so the caller can decide to flush or drop."""
        if self._flat is not None:
            return self._flat.unsubscribe(subscriber_id)
        return self._subscriptions.pop(subscriber_id, None)

    def get_state(self, subscriber_id: int) -> SubscriptionState | None:
        if self._flat is not None:
            return self._flat.view(subscriber_id)
        return self._subscriptions.get(subscriber_id)

    def restore_subscription(self, subscriber: Subscriber, snap) -> SubscriptionState:
        """Recreate a subscription from a restart snapshot (S20).

        Fields are copied verbatim — replaying through :meth:`enqueue`
        would recompute ``accumulated_error`` without the superseded
        updates' weights. A columnar dyconit writes them into a slot.
        """
        if self.is_subscribed(subscriber.subscriber_id):
            raise ValueError(
                f"subscriber {subscriber.subscriber_id} already subscribed "
                f"to {self.dyconit_id!r}"
            )
        if self._flat is not None:
            return self._flat.restore(subscriber, snap)
        state = SubscriptionState(
            subscriber=subscriber,
            bounds=snap.bounds,
            pending=dict(snap.pending),
            accumulated_error=snap.accumulated_error,
            oldest_pending_time=snap.oldest_pending_time,
            enqueued_count=snap.enqueued_count,
            merged_count=snap.merged_count,
            merging=snap.merging,
        )
        self._subscriptions[subscriber.subscriber_id] = state
        return state

    def set_bounds(self, subscriber_id: int, bounds: Bounds) -> None:
        if self._flat is not None:
            slot = self._flat.slots.get(subscriber_id)
            if slot is None:
                raise KeyError(
                    f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
                )
            self._flat.set_bounds_slot(slot, bounds)
            return
        state = self._subscriptions.get(subscriber_id)
        if state is None:
            raise KeyError(
                f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
            )
        state.bounds = bounds

    # ------------------------------------------------------------------
    # The batched surface: commit, due pass, retune
    # ------------------------------------------------------------------

    def commit(self, update: Update, exclude_subscriber: int | None, now: float):
        """Enqueue ``update`` for every subscriber but ``exclude_subscriber``
        (a player does not need its own action echoed back) and drain the
        queues it pushes over a bound.

        Returns ``(n_enqueued, n_merged, became_due, flushed)`` — see
        :meth:`FlatDyconitState.commit
        <repro.core.flatstate.FlatDyconitState.commit>`.
        """
        if self._flat is not None:
            result = self._flat.commit(update, exclude_subscriber, now)
        else:
            result = self._commit_states(update, exclude_subscriber, now)
        if result[0]:
            # Hotness accounting counts commits that actually enqueued
            # for someone: a commit with no subscribers (or only the
            # excluded originator) changed nobody's inconsistency and
            # must not make the unit look hot to the policy.
            self.total_committed_weight += update.weight
            self.commit_count += 1
        return result

    def drain_due(self, now: float):
        """The due pass over this dyconit (S22): drain every pending queue
        whose ``oldest + staleness`` is ``<= now``. Returns ``(examined,
        due, next_deadline)`` — see :meth:`FlatDyconitState.drain_due
        <repro.core.flatstate.FlatDyconitState.drain_due>`."""
        if self._flat is not None:
            return self._flat.drain_due(now)
        return self._drain_due(now)

    def rebound(self, slots, numerical, staleness, order, now: float):
        """A retune of this dyconit (S23): install new bounds on ``slots``
        (ascending positions in subscription order) and drain the pending
        queues they trip. Returns ``(examined, tripped, next_deadline)`` —
        see :meth:`FlatDyconitState.rebound
        <repro.core.flatstate.FlatDyconitState.rebound>`."""
        if self._flat is not None:
            return self._flat.rebound(slots, numerical, staleness, order, now)
        return self._rebound(slots, numerical, staleness, order, now)

    # The per-object walks: the same rules, one SubscriptionState at a
    # time — the reference the columns and the row store are held to.

    def _commit_states(self, update: Update, exclude_subscriber: int | None, now: float):
        n_enqueued = n_merged = 0
        became_due = math.inf
        flushed = []
        for state in self._subscriptions.values():
            if state.subscriber.subscriber_id == exclude_subscriber:
                continue
            result = state.enqueue(update)
            n_enqueued += 1
            n_merged += result.superseded
            reason = state.tripped_dimension(now)
            if reason is not None:
                flushed.append((state.subscriber, reason, state.drain()))
            elif result.became_pending:
                became_due = min(became_due, update.time + state.bounds.staleness_ms)
        return n_enqueued, n_merged, became_due, flushed or None

    def _drain_due(self, now: float):
        examined = 0
        due = []
        next_deadline = math.inf
        for state in self._subscriptions.values():
            oldest = state.oldest_pending_time
            if oldest is None:
                continue
            examined += 1
            deadline = oldest + state.bounds.staleness_ms
            if deadline <= now:
                due.append((state.subscriber, deadline, state.drain()))
            elif deadline < next_deadline:
                next_deadline = deadline
        return examined, due, next_deadline

    def _rebound(self, slots, numerical, staleness, order, now: float):
        states = list(self._subscriptions.values())
        examined = 0
        tripped = []
        next_deadline = math.inf
        for slot, row in zip(slots, zip(numerical.tolist(), staleness.tolist(), order.tolist())):
            state = states[slot]
            state.bounds = Bounds(*row)
            oldest = state.oldest_pending_time
            if oldest is None:
                continue
            examined += 1
            reason = state.tripped_dimension(now)
            if reason is not None:
                tripped.append((state.subscriber, reason, state.drain()))
            elif oldest + row[1] < next_deadline:
                next_deadline = oldest + row[1]
        return examined, tripped, next_deadline

    def __repr__(self) -> str:
        return (
            f"Dyconit({self.dyconit_id!r}, subscribers={self.subscriber_count}, "
            f"commits={self.commit_count})"
        )
