"""The DyconitSystem: middleware facade the game integrates with.

Responsibilities:

* owns all dyconits and the event→dyconit partitioning;
* runs the commit path (enqueue + numerical-bound check + flush);
* runs the tick path (the due pass over staleness deadlines, and
  periodic policy evaluation);
* manages subscriptions, including flush-on-unsubscribe semantics; and
* exposes :class:`~repro.core.stats.DyconitStats` to the evaluation.

Performance note (S22): "who is due" is asked per *dyconit* — ``_due_at``
holds one float per dyconit with a pending queue, a lower bound on its
earliest ``oldest_pending_time + staleness_ms`` — and a tick drains the
due subscriptions of each dyconit whose time has passed in one pass, so
a queue that flushes numerically and refills, or whose bound is
loosened, costs one examined dyconit later, never an entry per pair.
Flushes made inside a *flush scope* (a batch of commits, a tick, a
policy step) reach each subscriber as one delivery when it closes.
A retune (S23, :meth:`DyconitSystem.retune_clients`) is one vectorised
policy call, one install per dyconit and one trip check over the pending
queues of all of them (S37), not a ``set_bounds`` per (subscriber,
dyconit) pair; a chunk crossing (S33,
:meth:`DyconitSystem.retune_subscriber`) is one policy call over the
subscriber's membership and one loop of scalar installs, each the
handle's ``rebound_one`` — the install every bounds write to a live
subscription goes through (S35) — accounted inline (S37). Commit, due
pass and retune are each one call per dyconit on its handle whatever
the store (S25): the columns and the row store batch it, and none of
the three walks subscriptions here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, repeat
from operator import itemgetter, methodcaller
from typing import Callable, Hashable, Iterator, Sequence

import numpy as np

from repro.backends.base import (
    StateStore,
    SubscriptionSnapshot,
    snapshot_subscription,
)
from repro.backends.registry import create_state_store
from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit, SubscriptionState
from repro.core.partition import ChunkPartitioner, DyconitPartitioner
from repro.core.policy import LoadSignals, PairTable, Policy, xz_rows
from repro.core.stats import DyconitStats
from repro.core.subscription import Segment, Subscriber
from repro.core.update import Update
from repro.telemetry.hub import NULL_TELEMETRY, Telemetry

_subscriber_ids = methodcaller("subscriber_ids")


def _position_rows(subscriber_ids: np.ndarray, rows: dict[int, int]) -> np.ndarray:
    """Each subscriber's row in ``rows`` (client id -> position row), -1
    for one that is not a client: one gather from a table over the
    client ids' span, with a -1 at either end for ids beyond it, when
    that span is of the order of the client count (client ids number
    connections); a dict lookup per id otherwise."""
    if not rows:
        return np.full(len(subscriber_ids), -1, dtype=np.intp)
    low, high = min(rows), max(rows)
    if high - low > 16 * len(rows) + 4096:
        return np.fromiter(
            map(rows.get, subscriber_ids.tolist(), repeat(-1)), np.intp, len(subscriber_ids)
        )
    table = [-1] * (high - low + 3)
    for client_id, row in rows.items():
        table[client_id - low + 1] = row
    return np.array(table, dtype=np.intp).take(subscriber_ids - (low - 1), mode="clip")


def _client_slots(
    dyconit_ids: list, handles: list, slots: list, clients: list[bool]
) -> tuple[list, list, list]:
    """Keep each dyconit's client slots (``clients`` flags every slot of
    ``slots`` in order) and the dyconits left with one: their ids,
    handles and slots."""
    kept: tuple[list, list, list] = ([], [], [])
    start = 0
    for dyconit_id, handle, run in zip(dyconit_ids, handles, slots):
        flags = clients[start : start + len(run)]
        start += len(run)
        if not all(flags):
            run = list(compress(run, flags))
        if run:
            kept[0].append(dyconit_id)
            kept[1].append(handle)
            kept[2].append(run)
    return kept


@dataclass
class DyconitRecord:
    """One dyconit's durable half in a :class:`SystemSnapshot`."""

    dyconit_id: Hashable
    total_committed_weight: float
    commit_count: int
    default_bounds: Bounds
    merging: bool
    #: Subscription snapshots in iteration (= legacy dict insertion) order.
    subscriptions: list[SubscriptionSnapshot] = field(default_factory=list)


@dataclass
class SystemSnapshot:
    """Everything a :class:`DyconitSystem` needs to resume bit-compatibly.

    Subscriber *callbacks* are deliberately absent — they are runtime
    objects (closures over sockets and sessions) and are re-supplied by
    the host at :meth:`DyconitSystem.restore` time. Everything else is
    plain picklable data; the policy rides along whole (policies hold
    only picklable tuning state, a property the parallel sweep executor
    already relies on).
    """

    dyconits: list[DyconitRecord]
    #: Subscriber ids in registration order.
    subscriber_order: list[int]
    #: Per subscriber, its dyconit ids in subscription order.
    membership: dict[int, list[Hashable]]
    aliases: dict[Hashable, Hashable]
    alias_sources: dict[Hashable, list[Hashable]]
    last_policy_evaluation: float
    stats: DyconitStats
    policy: Policy
    merging_enabled: bool


class DyconitSystem:
    """Middleware instance serving one game server."""

    def __init__(
        self,
        policy: Policy,
        partitioner: DyconitPartitioner | None = None,
        time_source: Callable[[], float] | None = None,
        merging_enabled: bool = True,
        telemetry: Telemetry | None = None,
        state_store=None,
    ) -> None:
        self.policy = policy
        self.partitioner = partitioner if partitioner is not None else ChunkPartitioner()
        #: S19 backend seam: where per-dyconit subscription state lives.
        #: Accepts a StateStore instance or a registry spec ("memory",
        #: "sqlite", "sqlite:///path", "postgres://..."); default is the
        #: in-memory store. The store alone decides how a dyconit is
        #: represented (S17 columns, rows); every handle answers the same
        #: batched commit, due pass and retune calls (S25).
        self.state_store = create_state_store(state_store)
        # A store built here from a spec is this system's to close; an
        # instance handed in stays the caller's (a restart harness keeps
        # its store open across the system it is tearing down).
        self._owns_state_store = not isinstance(state_store, StateStore)
        self._closed = False
        #: E8(a) ablation switch; affects dyconits created after the change.
        self.merging_enabled = merging_enabled
        self._time_source = time_source if time_source is not None else (lambda: 0.0)
        self._dyconits: dict[Hashable, Dyconit] = {}
        #: Runtime repartitioning: source id -> merged target id. Commits
        #: and (un)subscriptions resolve through this table, so policies
        #: can merge cold dyconits and split them again live.
        self._aliases: dict[Hashable, Hashable] = {}
        #: Reverse of ``_aliases``: target id -> its direct sources, in
        #: merge order (dict-as-ordered-set). Lets ``split_dyconit`` run
        #: in O(sources of that target) instead of scanning every alias.
        self._alias_sources: dict[Hashable, dict[Hashable, None]] = {}
        self._subscribers: dict[int, Subscriber] = {}
        #: dyconit ids each subscriber currently subscribes to, in
        #: subscription order (dict-as-ordered-set). A plain set would
        #: iterate in string-hash order — randomized per process — and
        #: policies sweeping a subscriber's subscriptions would flush in
        #: a different order each run, breaking run-to-run determinism.
        #: Each id maps to a number from ``_joined``, increasing in that
        #: order, so ``_hand_on`` ranks an entry by one lookup.
        self._subscriptions_by_subscriber: dict[int, dict[Hashable, int]] = {}
        self._joined = count()
        #: dyconit id -> lower bound on the earliest ``oldest_pending_time
        #: + staleness_ms`` among its pending subscriptions. Live ids
        #: only; lowered wherever a deadline is created or advanced,
        #: raised (or dropped) only by the due pass, which has it exact.
        self._due_at: dict[Hashable, float] = {}
        #: Open flush scope: subscriber id -> (subscriber, its segments in
        #: drain order). ``None`` outside a scope — delivery is immediate.
        self._outbox: dict[int, tuple[Subscriber, list[Segment]]] | None = None
        self._last_policy_evaluation = -math.inf
        self.stats = DyconitStats()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Metric handles are resolved once here so the commit/flush hot
        # paths never pay a registry lookup; a disabled hub keeps them
        # None and the paths pay a single attribute check instead.
        if self.telemetry.enabled:
            self._tm_commits = self.telemetry.counter("dyconit_commits_total")
            self._tm_enqueued = self.telemetry.counter("dyconit_updates_enqueued_total")
            self._tm_delivered = self.telemetry.counter("dyconit_updates_delivered_total")
            self._tm_batch_size = self.telemetry.histogram(
                "dyconit_flush_batch_size", min_value=1.0
            )
            self._tm_pending = self.telemetry.gauge("dyconit_pending_dyconits")
            self._tm_segments = self.telemetry.histogram(
                "dyconit_delivery_segments", min_value=1.0
            )
            self._tm_decide = self._decide
        else:
            self._tm_commits = None
            self._tm_enqueued = None
            self._tm_delivered = None
            self._tm_batch_size = None
            self._tm_pending = None
            self._tm_segments = None
            self._tm_decide = None
        policy.on_attach(self)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._time_source()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the state store (idempotent).

        A store the system constructed from a spec is closed; an instance
        the caller passed in remains the caller's to close — the restart
        harness hands one store to a system, tears the system down, and
        keeps using the store.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_state_store:
            self.state_store.close()

    def __enter__(self) -> "DyconitSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Restart (S20): snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> SystemSnapshot:
        """Capture the durable half of the middleware, bit-for-bit.

        Called at a tick barrier (no partially applied commit). The
        result is plain data — see :class:`SystemSnapshot` for what is
        deliberately left out.
        """
        records = []
        for dyconit_id, dyconit in self._dyconits.items():
            records.append(
                DyconitRecord(
                    dyconit_id=dyconit_id,
                    total_committed_weight=dyconit.total_committed_weight,
                    commit_count=dyconit.commit_count,
                    default_bounds=dyconit.default_bounds,
                    merging=dyconit.merging,
                    subscriptions=[
                        snapshot_subscription(state)
                        for state in dyconit.subscription_states()
                    ],
                )
            )
        return SystemSnapshot(
            dyconits=records,
            subscriber_order=list(self._subscribers),
            membership={
                sub_id: list(ids)
                for sub_id, ids in self._subscriptions_by_subscriber.items()
            },
            aliases=dict(self._aliases),
            alias_sources={
                target: list(sources)
                for target, sources in self._alias_sources.items()
            },
            last_policy_evaluation=self._last_policy_evaluation,
            stats=self.stats,
            policy=self.policy,
            merging_enabled=self.merging_enabled,
        )

    def restore(self, snap: SystemSnapshot, subscribers: dict[int, Subscriber]) -> None:
        """Rebuild this (freshly constructed, empty) system from ``snap``.

        ``subscribers`` supplies the runtime callback objects, keyed by
        subscriber id — the host rebuilt them alongside its sessions.
        The store is wiped first (:meth:`StateStore.reset`) so rows a
        killed run wrote *after* the checkpoint can never leak in; every
        queue and accounting field is then rewritten verbatim through
        :meth:`~repro.backends.base.DyconitStateHandle.restore_subscription`.
        """
        if self._dyconits or self._subscribers:
            raise RuntimeError("restore() requires a fresh, empty DyconitSystem")
        missing = [
            sub.subscriber_id
            for record in snap.dyconits
            for sub in record.subscriptions
            if sub.subscriber_id not in subscribers
        ]
        if missing:
            raise ValueError(f"no runtime subscriber supplied for ids {missing}")
        self.merging_enabled = snap.merging_enabled
        # Adopt the snapshot's policy wholesale: adaptive policies carry
        # tuning state (EWMA baselines, last decisions) that must resume
        # where the captured run left off.
        self.policy = snap.policy
        snap.policy.on_attach(self)
        self.state_store.reset()
        for sub_id in snap.subscriber_order:
            self.register_subscriber(subscribers[sub_id])
        for record in snap.dyconits:
            handle = self.state_store.create_dyconit_state(
                record.dyconit_id, merging=record.merging
            )
            self._dyconits[record.dyconit_id] = handle
            handle.default_bounds = record.default_bounds
            handle.total_committed_weight = record.total_committed_weight
            handle.commit_count = record.commit_count
            for sub in record.subscriptions:
                handle.restore_subscription(subscribers[sub.subscriber_id], sub)
                # No snapshot field: the exact due time is a function of
                # the subscriptions being restored.
                if sub.oldest_pending_time is not None:
                    self._lower_due(
                        record.dyconit_id,
                        sub.oldest_pending_time + sub.bounds.staleness_ms,
                    )
        self._subscriptions_by_subscriber = {
            sub_id: dict(zip(ids, self._joined)) for sub_id, ids in snap.membership.items()
        }
        self._aliases = dict(snap.aliases)
        self._alias_sources = {
            target: dict.fromkeys(sources)
            for target, sources in snap.alias_sources.items()
        }
        self._last_policy_evaluation = snap.last_policy_evaluation
        self.stats = snap.stats

    # ------------------------------------------------------------------
    # Dyconit lifecycle
    # ------------------------------------------------------------------

    def resolve(self, dyconit_id: Hashable) -> Hashable:
        """Follow merge aliases to the dyconit that currently owns ``dyconit_id``."""
        aliases = self._aliases
        if dyconit_id not in aliases:  # the hot case: never merged
            return dyconit_id
        seen = set()
        while dyconit_id in aliases:
            if dyconit_id in seen:  # defensive: a cycle would hang commits
                raise RuntimeError(f"alias cycle involving {dyconit_id!r}")
            seen.add(dyconit_id)
            dyconit_id = aliases[dyconit_id]
        return dyconit_id

    def get_or_create(self, dyconit_id: Hashable) -> Dyconit:
        dyconit = self._dyconits.get(dyconit_id)
        if dyconit is None:
            dyconit = self.state_store.create_dyconit_state(
                dyconit_id, merging=self.merging_enabled
            )
            self._dyconits[dyconit_id] = dyconit
            self.stats.dyconits_created += 1
        return dyconit

    def get(self, dyconit_id: Hashable) -> Dyconit | None:
        return self._dyconits.get(dyconit_id)

    def remove_dyconit(self, dyconit_id: Hashable, flush_pending: bool = True) -> None:
        dyconit = self._dyconits.pop(dyconit_id, None)
        if dyconit is None:
            return
        self._due_at.pop(dyconit_id, None)
        # Removing a merge *target* releases its aliases: a later commit
        # to a source id must create a fresh dyconit under that id, not
        # resurrect an empty ghost under the removed target id (where it
        # would be dropped with no subscribers).
        for source_id in self._alias_sources.pop(dyconit_id, ()):
            self._aliases.pop(source_id, None)
        for state in dyconit.subscription_states():
            if flush_pending and state.has_pending:
                self._deliver(dyconit_id, state, reason="forced")
            membership = self._subscriptions_by_subscriber.get(
                state.subscriber.subscriber_id
            )
            if membership is not None:
                membership.pop(dyconit_id, None)
        self.state_store.drop_dyconit_state(dyconit_id)
        self.stats.dyconits_removed += 1

    def dyconits(self) -> Iterator[Dyconit]:
        return iter(self._dyconits.values())

    @property
    def dyconit_count(self) -> int:
        return len(self._dyconits)

    # ------------------------------------------------------------------
    # Runtime repartitioning (merge / split)
    # ------------------------------------------------------------------

    def merge_dyconits(self, source_ids: Sequence[Hashable], target_id: Hashable) -> Dyconit:
        """Merge ``source_ids`` into one dyconit under ``target_id``.

        Subscribers of every source are re-subscribed to the target with
        the component-wise *tightest* of their bounds (merging must never
        loosen a promise), pending updates move across, and future
        commits to a source id are aliased to the target. Policies use
        this to collapse cold areas into coarse units and cut bookkeeping.
        """
        target_id = self.resolve(target_id)
        target = self.get_or_create(target_id)
        # subscriber id -> (subscriber, its merged bounds), installed and
        # checked once every source has moved.
        merged: dict[int, tuple[Subscriber, Bounds]] = {}
        for source_id in source_ids:
            source_id = self.resolve(source_id)
            if source_id == target_id:
                continue
            self._aliases[source_id] = target_id
            self._alias_sources.setdefault(target_id, {})[source_id] = None
            if self.telemetry.enabled:
                self.telemetry.counter("dyconit_merges_total").increment()
            if self._tm_decide is not None:
                self._tm_decide("merge", source_id, detail=f"into {target_id!r}")
            source = self._dyconits.pop(source_id, None)
            if source is None:
                continue
            self._due_at.pop(source_id, None)
            target.total_committed_weight += source.total_committed_weight
            target.commit_count += source.commit_count
            for state in source.subscription_states():
                subscriber = state.subscriber
                sub_id = subscriber.subscriber_id
                membership = self._subscriptions_by_subscriber.get(sub_id)
                if membership is not None:
                    membership.pop(source_id, None)
                merged_state = target.get_state(sub_id)
                if merged_state is None:
                    merged_state = target.subscribe(subscriber, state.bounds)
                    if membership is not None:
                        membership.setdefault(target_id, next(self._joined))
                current = merged[sub_id][1] if sub_id in merged else merged_state.bounds
                merged[sub_id] = merged_state.subscriber, Bounds(
                    min(current.numerical, state.bounds.numerical),
                    min(current.staleness_ms, state.bounds.staleness_ms),
                    min(current.order, state.bounds.order),
                )
                if state.has_pending:
                    had_backlog = merged_state.has_pending
                    for update in state.drain():
                        merged_state.enqueue(update)
                    if had_backlog:
                        # The moved backlog may predate updates already
                        # queued on the target; restore the time order the
                        # sort-free drain relies on.
                        merged_state.restore_time_order()
            self.state_store.drop_dyconit_state(source_id)
            self.stats.dyconits_removed += 1
        # A moved backlog or a tightened bound may be over the bound: flush
        # it now, as set_bounds would, or have the due pass visit it by
        # its (possibly earlier) deadline.
        now = self.now
        for subscriber, bounds in merged.values():
            self._rebound_one(
                target_id, target, subscriber,
                bounds.numerical, bounds.staleness_ms, bounds.order, now,
            )
        return target

    def split_dyconit(self, target_id: Hashable) -> list[Hashable]:
        """Undo a merge: release every id aliased to ``target_id``.

        The target's subscribers are re-subscribed to each released id
        (with their current bounds) so no updates are lost between the
        split and the next interest refresh; the target is then removed,
        flushing anything still queued.
        """
        sources = list(self._alias_sources.pop(target_id, ()))
        for source_id in sources:
            del self._aliases[source_id]
            if self.telemetry.enabled:
                self.telemetry.counter("dyconit_splits_total").increment()
            if self._tm_decide is not None:
                self._tm_decide("split", source_id, detail=f"out of {target_id!r}")
        target = self._dyconits.get(target_id)
        if target is not None:
            for state in target.subscription_states():
                for source_id in sources:
                    self.subscribe(source_id, state.subscriber, bounds=state.bounds)
            self.remove_dyconit(target_id)
        return sources

    def is_merged(self, dyconit_id: Hashable) -> bool:
        return dyconit_id in self._aliases

    @property
    def alias_count(self) -> int:
        return len(self._aliases)

    # ------------------------------------------------------------------
    # Subscribers
    # ------------------------------------------------------------------

    def register_subscriber(self, subscriber: Subscriber) -> None:
        if subscriber.subscriber_id in self._subscribers:
            raise ValueError(f"subscriber {subscriber.subscriber_id} already registered")
        self._subscribers[subscriber.subscriber_id] = subscriber
        self._subscriptions_by_subscriber[subscriber.subscriber_id] = {}

    def remove_subscriber(self, subscriber_id: int, flush_pending: bool = False) -> None:
        """Drop a subscriber from every dyconit (player disconnect).

        ``flush_pending=False`` by default: a disconnecting player's
        socket is gone, so pending updates are dropped, not sent.
        """
        membership = self._subscriptions_by_subscriber.pop(subscriber_id, {})
        for dyconit_id in list(membership):
            dyconit = self._dyconits.get(dyconit_id)
            if dyconit is None:
                continue
            state = dyconit.unsubscribe(subscriber_id)
            if state is not None:
                if flush_pending and state.has_pending:
                    self._deliver(dyconit_id, state, reason="forced")
                self.stats.unsubscriptions += 1
        self._subscribers.pop(subscriber_id, None)

    def subscriber(self, subscriber_id: int) -> Subscriber | None:
        return self._subscribers.get(subscriber_id)

    def subscribers(self) -> Iterator[Subscriber]:
        return iter(self._subscribers.values())

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def subscriptions_of(self, subscriber_id: int) -> set[Hashable]:
        return set(self._subscriptions_by_subscriber.get(subscriber_id, ()))

    def subscription_ids_of(self, subscriber_id: int) -> tuple[Hashable, ...]:
        """Like :meth:`subscriptions_of` but in deterministic subscription
        order — use this when *iterating* (bound sweeps, flushes) so the
        sweep order doesn't depend on string-hash randomization."""
        return tuple(self._subscriptions_by_subscriber.get(subscriber_id, ()))

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def subscribe(
        self,
        dyconit_id: Hashable,
        subscriber: Subscriber,
        bounds: Bounds | None = None,
    ) -> SubscriptionState:
        """Subscribe; bounds default to the policy's, a one-row
        :meth:`policy_bounds`."""
        if subscriber.subscriber_id not in self._subscribers:
            self.register_subscriber(subscriber)
        dyconit_id = self.resolve(dyconit_id)
        dyconit = self.get_or_create(dyconit_id)
        if bounds is None:
            (bounds,) = self.policy_bounds([dyconit_id], subscriber)
        state = dyconit.get_state(subscriber.subscriber_id)
        if state is not None:
            # Re-subscribing (e.g. an interest refresh) may change the
            # bounds; that must go through the same install-and-check
            # step as set_bounds, or a tightened staleness bound on a
            # queued backlog silently keeps its old (later) deadline.
            if bounds != state.bounds:
                self._rebound_one(
                    dyconit_id, dyconit, state.subscriber,
                    bounds.numerical, bounds.staleness_ms, bounds.order, self.now,
                )
            return state
        state = dyconit.subscribe(subscriber, bounds)
        self._subscriptions_by_subscriber[subscriber.subscriber_id][dyconit_id] = next(
            self._joined
        )
        self.stats.subscriptions += 1
        return state

    def policy_bounds(
        self, dyconit_ids: Sequence[Hashable], subscriber: Subscriber
    ) -> list[Bounds]:
        """The policy's bounds for ``subscriber`` on each of the (resolved)
        ``dyconit_ids``: one ``bounds_columns`` call, the position read
        once — what a view change subscribes with."""
        columns = self.policy.bounds_columns(self, PairTable.at(dyconit_ids, subscriber.position))
        return [Bounds(*row) for row in zip(*(column.tolist() for column in columns))]

    def unsubscribe(
        self, dyconit_id: Hashable, subscriber_id: int, flush_pending: bool = True
    ) -> None:
        dyconit_id = self.resolve(dyconit_id)
        dyconit = self._dyconits.get(dyconit_id)
        if dyconit is None:
            return
        state = dyconit.unsubscribe(subscriber_id)
        if state is None:
            return
        if flush_pending and state.has_pending:
            self._deliver(dyconit_id, state, reason="forced")
        membership = self._subscriptions_by_subscriber.get(subscriber_id)
        if membership is not None:
            membership.pop(dyconit_id, None)
        self.stats.unsubscriptions += 1

    def set_bounds(self, dyconit_id: Hashable, subscriber_id: int, bounds: Bounds) -> None:
        """Update one subscription's bounds; re-checks immediately so a
        tightened bound takes effect without waiting for the next commit.
        The gateway's bounds op; policies retune through
        :meth:`retune_clients` and :meth:`retune_subscriber`."""
        dyconit_id = self.resolve(dyconit_id)
        dyconit = self._dyconits.get(dyconit_id)
        if dyconit is None:
            return
        state = dyconit.get_state(subscriber_id)
        if state is None:
            return
        if self._tm_decide is not None:
            self._tm_decide(
                "bounds", dyconit_id, subscriber_id,
                f"numerical={bounds.numerical:g} staleness={bounds.staleness_ms:g}",
            )
        self._rebound_one(
            dyconit_id, dyconit, state.subscriber,
            bounds.numerical, bounds.staleness_ms, bounds.order, self.now,
        )

    def _decide(
        self, kind: str, dyconit_id: Hashable, subscriber_id: int | None = None, detail: str = ""
    ) -> None:
        """Log one middleware decision (S31): a ``trace.<kind>`` event on
        the hub's timeline and a ``trace_events_total{kind}`` count."""
        telemetry = self.telemetry
        telemetry.counter("trace_events_total", kind=kind).increment()
        telemetry.event(
            "trace." + kind,
            dyconit=repr(dyconit_id),
            subscriber="" if subscriber_id is None else str(subscriber_id),
            detail=detail,
        )

    def retune_clients(self, bounds_columns) -> None:
        """Re-derive the bounds of every client subscription in one pass
        over the dyconits (S23) — what a load-adaptive policy does when
        its factor moves.

        Each client's position is read once into a position row (NaN for
        none), and each dyconit's subscriber ids are mapped to rows in
        slot order: the pairs go to ``bounds_columns(system, table)`` as
        one :class:`PairTable` (S36), which returns their ``(numerical,
        staleness, order)`` float64 columns. Each dyconit installs its
        slice in one call and reports its pending queues' error and age;
        those of every dyconit are then checked against the sweep's
        columns at once (S37), and only what trips is drained, accounted
        and handed on as a per-pair ``set_bounds`` sweep would have:
        reasons by ``Bounds.tripped_dimension``, subscribers in
        registration order, each one's queues in membership order.

        Peer subscriptions (S16) are left alone: their bounds were chosen
        by the *subscribing* shard, and the publisher's load servo has no
        business rewriting another server's error budget.
        """
        now = self.now
        rows: dict[int, int] = {}  # client id -> its position row
        positions = []
        for subscriber_id, subscriber in self._subscribers.items():
            if subscriber.kind == "client":
                rows[subscriber_id] = len(positions)
                positions.append(subscriber.position)
        handles = self._dyconits
        id_views = list(map(_subscriber_ids, handles.values()))
        lengths = list(map(len, id_views))
        # The dyconits with a subscriber, each with its client slots.
        dyconit_ids = list(compress(handles, lengths))
        runs = list(compress(handles.values(), lengths))
        slots = list(map(range, filter(None, lengths)))
        if not slots:
            return
        position_rows = _position_rows(np.concatenate(id_views), rows)
        if len(rows) < len(self._subscribers):  # peers: keep the client slots
            clients = position_rows >= 0
            if not clients.all():
                dyconit_ids, runs, slots = _client_slots(
                    dyconit_ids, runs, slots, clients.tolist()
                )
                position_rows = position_rows[clients]
                if not slots:
                    return
        lengths = list(map(len, slots))
        table = PairTable(
            dyconit_ids,
            np.repeat(np.arange(len(dyconit_ids)), lengths),
            xz_rows(positions),
            position_rows,
        )
        numerical, staleness, order = bounds_columns(self, table)
        if self._tm_decide is not None:
            subscriber_ids = list(rows)
            for id_row, position_row, numerical_bound, staleness_ms in zip(
                table.id_rows.tolist(),
                position_rows.tolist(),
                numerical.tolist(),
                staleness.tolist(),
            ):
                self._tm_decide(
                    "bounds", table.dyconit_ids[id_row], subscriber_ids[position_row],
                    f"numerical={numerical_bound:g} staleness={staleness_ms:g}",
                )
        # Decided once for the sweep: an all-infinite order column trips
        # nothing on order, so no store need count its queues.
        check_order = not np.isinf(order).all()
        block = np.stack((numerical, staleness, order))
        pending = []  # (dyconit id, handle, slots) of each one with a pending queue
        parts = []  # their (bounds, error, oldest, counts)
        start = 0
        for dyconit_id, handle, run, end in zip(dyconit_ids, runs, slots, accumulate(lengths)):
            bounds = block[:, start:end]
            start = end
            found = handle.rebound(run, bounds, check_order)
            if found is not None:
                pending.append((dyconit_id, handle, run))
                parts.append((bounds, *found))
        if not pending:
            return
        # One trip check over the pending queues of every dyconit, in
        # Bounds.tripped_dimension's precedence (S37). An empty queue
        # (error 0, oldest inf) trips nothing, and a finite age never
        # reaches an infinite staleness bound.
        bounds, errors, oldests, counts = zip(*parts)
        pair_bounds = np.concatenate(bounds, axis=1)
        oldest = np.concatenate(oldests)
        numerical_trip = np.concatenate(errors) > pair_bounds[0]
        staleness_trip = (now - oldest) >= pair_bounds[1]
        tripped = numerical_trip | staleness_trip
        if check_order:
            tripped |= np.concatenate(counts) > pair_bounds[2]
        hits = tripped.nonzero()[0]
        deadlines = oldest + pair_bounds[1]
        deadlines[hits] = math.inf
        self.stats.bound_checks += int(np.count_nonzero(oldest != math.inf))
        ends = np.cumsum([len(run) for __, __, run in pending])
        starts = [0, *ends[:-1].tolist()]
        # fmin skips a NaN deadline, as the scalar ``<`` comparisons do.
        for (dyconit_id, __, __), deadline in zip(
            pending, np.fmin.reduceat(deadlines, starts).tolist()
        ):
            self._lower_due(dyconit_id, deadline)
        if not len(hits):
            return
        # Each hit's dyconit, its slot there, and its reason.
        drains: dict[int, list] = {}
        for index, hit, numerical_hit, staleness_hit in zip(
            np.searchsorted(ends, hits, side="right").tolist(),
            hits.tolist(),
            numerical_trip[hits].tolist(),
            staleness_trip[hits].tolist(),
        ):
            reason = "numerical" if numerical_hit else "staleness" if staleness_hit else "order"
            drains.setdefault(index, []).append((pending[index][2][hit - starts[index]], reason))
        by_subscriber: dict[int, list] = {}
        with self._flush_scope():
            for index, entries in drains.items():
                dyconit_id, handle, __ = pending[index]
                drained = handle.drain_slots([slot for slot, __ in entries])
                for (subscriber, updates), (__, reason) in zip(drained, entries):
                    by_subscriber.setdefault(subscriber.subscriber_id, []).append(
                        (0.0, dyconit_id, subscriber, updates, reason)
                    )
            self._hand_on(by_subscriber)

    def retune_subscriber(self, subscriber: Subscriber, bounds_columns) -> None:
        """Re-derive the bounds of every subscription of ``subscriber`` as
        one column (S33) — what a spatial policy does when the
        subscriber's avatar crosses a chunk border.

        The position is read once and ``bounds_columns(system, table)``
        called once over the subscriber's membership, in membership
        order, paired with that one position (``PairTable.at``). One
        loop then installs and checks each entry on its dyconit's handle
        (``rebound_one``) and accounts it as :meth:`_rebound_one` does,
        in that order, as a :meth:`set_bounds` per dyconit would have
        (S37).
        """
        subscriber_id = subscriber.subscriber_id
        dyconit_ids = list(self._subscriptions_by_subscriber.get(subscriber_id, ()))
        if not dyconit_ids:
            return
        numerical, staleness, order = bounds_columns(
            self, PairTable.at(dyconit_ids, subscriber.position)
        )
        if self._aliases:
            dyconit_ids = list(map(self.resolve, dyconit_ids))
        now = self.now
        due_at = self._due_at
        decide = self._tm_decide
        examined_total = 0
        with self._flush_scope():
            for dyconit_id, dyconit, numerical_bound, staleness_ms, order_bound in zip(
                dyconit_ids,
                map(self._dyconits.get, dyconit_ids),
                numerical.tolist(),
                staleness.tolist(),
                order.tolist(),
            ):
                if dyconit is None:
                    continue
                if decide is not None and dyconit.is_subscribed(subscriber_id):
                    decide(
                        "bounds", dyconit_id, subscriber_id,
                        f"numerical={numerical_bound:g} staleness={staleness_ms:g}",
                    )
                examined, reason, updates, deadline = dyconit.rebound_one(
                    subscriber_id, numerical_bound, staleness_ms, order_bound, now
                )
                if examined:  # a pending queue: flushed, or due by its deadline
                    examined_total += 1
                    if reason is not None:
                        self._flushed(dyconit_id, subscriber, updates, reason)
                    elif deadline < due_at.get(dyconit_id, math.inf):
                        due_at[dyconit_id] = deadline
            self.stats.bound_checks += examined_total

    def _rebound_one(
        self,
        dyconit_id: Hashable,
        dyconit: Dyconit,
        subscriber: Subscriber,
        numerical: float,
        staleness_ms: float,
        order: float,
        now: float,
    ) -> None:
        """Install bounds on one live subscription and check them: the one
        way a bounds write reaches a subscription (set_bounds,
        re-subscription, a crossing, a merge). A tightened bound takes
        effect at once — the queue flushes with the tripped dimension as
        its reason if already over it, else the due pass visits it by the
        deadline the new staleness bound implies."""
        examined, reason, updates, deadline = dyconit.rebound_one(
            subscriber.subscriber_id, numerical, staleness_ms, order, now
        )
        self.stats.bound_checks += examined
        if reason is None:
            self._lower_due(dyconit_id, deadline)
        else:
            self._flushed(dyconit_id, subscriber, updates, reason)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------

    def commit(self, update: Update, exclude_subscriber: int | None = None) -> Hashable:
        """Commit an update, routing it through the partitioner.

        Returns the dyconit id the update was committed to.
        """
        dyconit_id = self.partitioner.dyconit_for_event(update)
        self.commit_to(dyconit_id, update, exclude_subscriber)
        return dyconit_id

    def commit_to(
        self, dyconit_id: Hashable, update: Update, exclude_subscriber: int | None = None
    ) -> None:
        """Commit an update to an explicit dyconit."""
        dyconit_id = self.resolve(dyconit_id)
        dyconit = self.get_or_create(dyconit_id)
        if self._tm_commits is not None:
            self._tm_commits.increment()
        self._commit_resolved(dyconit_id, dyconit, update, exclude_subscriber)

    def commit_many(
        self,
        batch: Sequence[tuple[Hashable, Update, int | None]],
    ) -> None:
        """Commit a batch of ``(dyconit_id, update, exclude_subscriber)``.

        Consecutive items targeting the same (unresolved) dyconit id form
        a *run* that shares one alias resolution and dyconit lookup —
        the per-update overhead the legacy path pays on every commit.
        Runs are only formed over consecutive items so the drain order
        of an interleaved stream is exactly that of the equivalent
        :meth:`commit_to` loop. The batch is one flush scope, so no
        handler — and with it no repartition — runs while a resolution
        is cached.
        """
        run_id: object = object()
        resolved: Hashable = None
        dyconit: Dyconit | None = None
        committed = 0
        with self._flush_scope():
            for dyconit_id, update, exclude_subscriber in batch:
                if dyconit_id != run_id:
                    run_id = dyconit_id
                    resolved = self.resolve(dyconit_id)
                    dyconit = self.get_or_create(resolved)
                committed += 1
                self._commit_resolved(resolved, dyconit, update, exclude_subscriber)
        if committed and self._tm_commits is not None:
            self._tm_commits.increment(committed)

    def _commit_resolved(
        self,
        dyconit_id: Hashable,
        dyconit: Dyconit,
        update: Update,
        exclude_subscriber: int | None,
    ) -> None:
        """Shared commit body; ``dyconit_id`` must already be resolved.
        One call to the handle enqueues for every subscriber and drains
        what tripped; this accounts it and hands the drains on."""
        stats = self.stats
        stats.commits += 1
        n_enqueued, n_merged, became_due, flushed = dyconit.commit(
            update, exclude_subscriber, self.now
        )
        if not n_enqueued:
            return
        stats.updates_enqueued += n_enqueued
        stats.updates_merged += n_merged
        stats.bound_checks += n_enqueued
        if self._tm_enqueued is not None:
            self._tm_enqueued.increment(n_enqueued)
        if flushed is not None:
            for subscriber, reason, updates in flushed:
                self._flushed(dyconit_id, subscriber, updates, reason)
        self._lower_due(dyconit_id, became_due)

    def _lower_due(self, dyconit_id: Hashable, deadline: float) -> None:
        """Have the due pass visit ``dyconit_id`` by ``deadline`` (an
        infinite or NaN deadline changes nothing)."""
        if deadline < self._due_at.get(dyconit_id, math.inf):
            self._due_at[dyconit_id] = deadline

    # ------------------------------------------------------------------
    # Tick path
    # ------------------------------------------------------------------

    def tick(self) -> int:
        """Run due staleness flushes; returns the number performed.

        Policy evaluation is separate (:meth:`evaluate_policy`) because it
        needs load signals only the server can supply; unit tests can tick
        the middleware without a server.
        """
        with self._flush_scope():
            return self._flush_due(self.now)

    def evaluate_policy(self, signals: LoadSignals) -> bool:
        """Run the policy if its evaluation period has elapsed."""
        if signals.now - self._last_policy_evaluation < self.policy.evaluation_period_ms:
            return False
        self._last_policy_evaluation = signals.now
        with self._flush_scope(), self.telemetry.span("policy.evaluate"):
            self.policy.evaluate(self, signals)
        self.stats.policy_evaluations += 1
        return True

    def notify_subscriber_moved(self, subscriber_id: int) -> None:
        subscriber = self._subscribers.get(subscriber_id)
        if subscriber is not None:
            with self._flush_scope():
                self.policy.on_subscriber_moved(self, subscriber)

    def _flush_due(self, now: float) -> int:
        """The due pass (S22): visit every dyconit whose due time has
        passed, drain its subscriptions that are *pending with ``oldest +
        staleness <= now``* (the one rule for every representation), and
        write back its exact due time. The flushes are then accounted and
        handed on in canonical order (:meth:`_hand_on`), ranked by
        deadline.
        """
        due_at = self._due_at
        due_ids = [dyconit_id for dyconit_id, at in due_at.items() if at <= now]
        by_subscriber: dict[int, list] = {}
        for dyconit_id in due_ids:
            examined, due, next_deadline = self._dyconits[dyconit_id].drain_due(now)
            self.stats.bound_checks += examined
            if next_deadline == math.inf:
                del due_at[dyconit_id]
            else:
                due_at[dyconit_id] = next_deadline
            for subscriber, deadline, updates in due:
                by_subscriber.setdefault(subscriber.subscriber_id, []).append(
                    (deadline, dyconit_id, subscriber, updates, "staleness")
                )
        return self._hand_on(by_subscriber)

    def _hand_on(self, by_subscriber: dict[int, list]) -> int:
        """Account and hand on drained queues in canonical order (S22):
        subscribers in registration order, each one's ``(rank,
        dyconit_id, subscriber, updates, reason)`` entries by (rank,
        position of the dyconit in the subscriber's membership order).
        Both orders are snapshotted and hash-seed independent, so neither
        the order the queues were drained in nor a string hash can show —
        not even in ``DyconitStats.queue_delay_total_ms``, a float sum.
        Returns the number of flushes. A tie in rank looks up only the
        tied entries' own ids: a membership maps each id to a number
        increasing in membership order."""
        flushed = 0
        if not by_subscriber:
            return flushed
        for subscriber_id, membership in self._subscriptions_by_subscriber.items():
            entries = by_subscriber.get(subscriber_id)
            if entries is None:
                continue
            entries.sort(key=itemgetter(0))
            if any(a[0] == b[0] for a, b in zip(entries, entries[1:])):
                entries.sort(key=lambda entry: (entry[0], membership[entry[1]]))
            for __, dyconit_id, subscriber, updates, reason in entries:
                self._flushed(dyconit_id, subscriber, updates, reason)
            flushed += len(entries)
        return flushed

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    @contextmanager
    def _flush_scope(self):
        """Defer deliveries to a per-subscriber outbox; on exit hand every
        subscriber its segments, once, in drain order. Nested: a no-op.

        The outbox is detached before the first handler runs: one that
        raises propagates with nothing left behind for a later scope and
        nothing delivered twice; one that commits back runs outside any
        scope.
        """
        if self._outbox is not None:
            yield
            return
        self._outbox = {}
        try:
            yield
        finally:
            outbox, self._outbox = self._outbox, None
            if self._tm_pending is not None:
                self._tm_pending.set(len(self._due_at))
            for subscriber, segments in outbox.values():
                if self._tm_segments is not None:
                    self._tm_segments.record(len(segments))
                subscriber.deliver(segments)

    def flush(self, dyconit_id: Hashable, subscriber_id: int) -> None:
        """Force-flush one subscription (used by policies and shutdown)."""
        dyconit_id = self.resolve(dyconit_id)
        dyconit = self._dyconits.get(dyconit_id)
        if dyconit is None:
            return
        state = dyconit.get_state(subscriber_id)
        if state is not None and state.has_pending:
            self._deliver(dyconit_id, state, reason="forced")

    def flush_subscriber(self, subscriber_id: int) -> None:
        """Force-flush everything queued for one subscriber."""
        with self._flush_scope():
            for dyconit_id in self.subscription_ids_of(subscriber_id):
                self.flush(dyconit_id, subscriber_id)

    def flush_all(self) -> None:
        """Force-flush every queue (end-of-run barrier in experiments)."""
        with self._flush_scope():
            for dyconit_id, dyconit in list(self._dyconits.items()):
                for state in dyconit.subscription_states():
                    if state.has_pending:
                        self._deliver(dyconit_id, state, reason="forced")

    def _deliver(
        self, dyconit_id: Hashable, state: SubscriptionState, reason: str
    ) -> None:
        updates = state.drain()
        if updates:
            self._flushed(dyconit_id, state.subscriber, updates, reason)

    def _flushed(
        self,
        dyconit_id: Hashable,
        subscriber: Subscriber,
        updates: Sequence[Update],
        reason: str,
    ) -> None:
        """Account one drained queue and send it on its way: into the
        open scope's outbox, or straight to the subscriber outside one."""
        now = self.now
        stats = self.stats
        stats.flushes += 1
        if reason == "numerical":
            stats.flushes_numerical += 1
        elif reason == "staleness":
            stats.flushes_staleness += 1
        elif reason == "order":
            stats.flushes_order += 1
        else:
            stats.flushes_forced += 1
        stats.updates_delivered += len(updates)
        if self._tm_delivered is not None:
            self._tm_delivered.increment(len(updates))
            self._tm_batch_size.record(len(updates))
            self.telemetry.counter("dyconit_flushes_total", reason=reason).increment()
        delay_total = stats.queue_delay_total_ms
        for update in updates:
            delay_total += max(0.0, now - update.time)
        stats.queue_delay_total_ms = delay_total
        stats.queue_delay_samples += len(updates)
        if self._tm_decide is not None:
            self._tm_decide(
                "flush", dyconit_id, subscriber.subscriber_id,
                f"reason={reason} updates={len(updates)}",
            )
        outbox = self._outbox
        if outbox is None:
            subscriber.deliver([(dyconit_id, updates)])
        else:
            outbox.setdefault(subscriber.subscriber_id, (subscriber, []))[1].append(
                (dyconit_id, updates)
            )
