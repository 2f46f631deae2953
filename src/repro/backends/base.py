"""Backend protocol: where dyconit state lives.

One seam (S19) lets the middleware keep its state outside the process:
:class:`StateStore` is the factory and home of per-dyconit subscription
state. The :class:`~repro.core.manager.DyconitSystem` never constructs
a :class:`~repro.core.dyconit.Dyconit` directly; it asks its store for
a *dyconit state handle* and talks to that handle through the surface
documented on :class:`DyconitStateHandle`. The in-memory store hands
back ``Dyconit`` objects, whose state is S17 columns; the SQL row store
hands back handles whose queues live in a SQLite database.

The protocol is *synchronous and single-writer by design*: the
simulation owns the only mutating thread, exactly as before. A store
that wants asynchrony must still present this synchronous surface to
the middleware and do its own pipelining behind it — the determinism
contract (run-to-run bit identity) is part of the protocol, not an
accident of the in-memory implementation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import numpy as np

    from repro.core.bounds import Bounds
    from repro.core.subscription import Subscriber
    from repro.core.update import Update


@dataclass
class SubscriptionSnapshot:
    """Backend-neutral record of one (dyconit, subscriber) subscription.

    Captured by :func:`snapshot_subscription` from any backend's
    subscription-state object and replayed into any backend through
    :meth:`DyconitStateHandle.restore_subscription` — the restart
    contract (S20) moves accounting across store instances (and across
    backends) through this one shape. ``pending`` keeps *(merge key,
    update)* pairs in queue order so a restored drain emits the same
    updates in the same order; the float fields are copied verbatim so
    restored accounting is bit-equal, never recomputed (recomputing
    ``accumulated_error`` from the surviving pending updates would lose
    the weight of superseded ones).
    """

    subscriber_id: int
    bounds: "Bounds"
    pending: list[tuple[Hashable, "Update"]]
    accumulated_error: float
    oldest_pending_time: float | None
    enqueued_count: int
    merged_count: int
    merging: bool


def snapshot_subscription(state) -> SubscriptionSnapshot:
    """Capture one subscription state through the common surface.

    Works on every backend's state object (``SubscriptionState``, the
    SQL row views, columnar flat views) because the
    contract suite already requires all of them to expose these exact
    attributes.
    """
    return SubscriptionSnapshot(
        subscriber_id=state.subscriber.subscriber_id,
        bounds=state.bounds,
        pending=list(state.pending.items()),
        accumulated_error=state.accumulated_error,
        oldest_pending_time=state.oldest_pending_time,
        enqueued_count=state.enqueued_count,
        merged_count=state.merged_count,
        merging=state.merging,
    )


class DyconitStateHandle(abc.ABC):
    """The per-dyconit surface the manager drives.

    This documents (and, for non-memory backends, enforces) the exact
    method set :class:`~repro.core.manager.DyconitSystem` uses on the
    objects it gets from :meth:`StateStore.create_dyconit_state`. The
    in-memory store returns :class:`~repro.core.dyconit.Dyconit`, which
    satisfies this surface structurally (this package imports
    ``repro.core.dyconit``, so that module cannot import the ABC back);
    the SQL row store's handle and the test suite's per-object reference
    subclass it, so a missing method is a loud TypeError at
    construction, not a silent divergence later.

    Required attributes: ``dyconit_id``, ``total_committed_weight``,
    ``commit_count``, ``default_bounds`` and ``merging``. The manager's
    three hot paths are one batched call each — :meth:`commit`,
    :meth:`drain_due` and :meth:`rebound` (S25; a sweep then drains what
    its one trip check finds through :meth:`drain_slots`, S37) — and a
    chunk crossing is one :meth:`rebound_one` per subscription (S33), so
    a store chooses its representation and batches behind them; the
    manager never asks which one it got.

    Subscription-state objects returned by :meth:`get_state` /
    :meth:`subscription_states` / :meth:`subscribe` /
    :meth:`unsubscribe` must be drop-in compatible with
    :class:`~repro.core.dyconit.SubscriptionState`: ``subscriber``,
    ``bounds`` (settable), ``pending``, ``accumulated_error``,
    ``oldest_pending_time``, ``enqueued_count``, ``merged_count``,
    ``has_pending``, ``oldest_age_ms``, ``tripped_dimension``,
    ``exceeds_bounds``, ``enqueue``, ``drain`` and
    ``restore_time_order`` — the contract suite checks every one of
    these against every registered backend. The memory store's columnar
    :class:`~repro.core.dyconit.FlatSubscriptionView` is held to this
    full surface itself: repartitioning and restore drive it directly.
    """

    dyconit_id: Hashable
    total_committed_weight: float
    commit_count: int

    @property
    @abc.abstractmethod
    def subscriber_count(self) -> int: ...

    @abc.abstractmethod
    def subscriber_ids(self) -> np.ndarray:
        """The subscribers' ids in subscription (slot) order, as an int64
        array — possibly a live view of the store's own column: read it
        before subscribing or unsubscribing again. A retune sweep maps
        them to position rows all at once (S37)."""

    @abc.abstractmethod
    def subscription_states(self) -> list: ...

    @abc.abstractmethod
    def is_subscribed(self, subscriber_id: int) -> bool: ...

    @abc.abstractmethod
    def subscribe(self, subscriber: "Subscriber", bounds=None): ...

    @abc.abstractmethod
    def unsubscribe(self, subscriber_id: int): ...

    @abc.abstractmethod
    def get_state(self, subscriber_id: int): ...

    @abc.abstractmethod
    def set_bounds(self, subscriber_id: int, bounds) -> None: ...

    @abc.abstractmethod
    def commit(self, update: "Update", exclude_subscriber: int | None, now: float):
        """Enqueue ``update`` for every subscriber but
        ``exclude_subscriber`` and drain the queues it pushes over a bound.

        Returns ``(n_enqueued, n_merged, became_due, flushed)``: the
        subscriptions enqueued for and how many of those superseded a
        queued update; the earliest ``oldest + staleness`` among the
        queues this commit turned pending and left pending (``inf`` if
        none); and ``None`` if nothing tripped, else ``(subscriber,
        reason, updates)`` per drained queue in subscription order, the
        reason by ``Bounds.tripped_dimension``. A commit that enqueued for
        someone adds to ``commit_count`` and ``total_committed_weight``.
        """

    @abc.abstractmethod
    def drain_due(self, now: float):
        """The due pass over this dyconit (S22): drain every pending
        queue whose ``oldest + staleness`` is ``<= now``.

        Returns ``(examined, due, next_deadline)``: the pending queues
        looked at, ``(subscriber, deadline, updates)`` per drained queue in
        subscription order, and the earliest deadline among the queues
        left pending (``inf`` if none).
        """

    @abc.abstractmethod
    def rebound(self, slots, bounds, check_order: bool = True):
        """A retune sweep's install on this dyconit (S23, S37): ``slots``
        are ascending positions in subscription order, ``bounds`` a
        ``(3, len(slots))`` float64 block of their new numerical,
        staleness and order bounds. Install them; check nothing.

        Returns ``None`` when no queue among ``slots`` is pending, else
        ``(error, oldest, counts)`` aligned with ``slots``: float64
        accumulated errors, oldest pending times (``inf`` for an empty
        queue, whose error is 0) and, if ``check_order``, int64 queue
        lengths, else ``None`` (``check_order=False`` promises every
        order bound of the sweep is infinite, S36). The manager checks
        the pending queues of all dyconits against the sweep's columns
        at once and drains what trips through :meth:`drain_slots`. The
        arrays may be views of the store's columns, valid until its next
        mutation.
        """

    @abc.abstractmethod
    def drain_slots(self, slots):
        """Drain the queues at ``slots`` (ascending positions in
        subscription order) together. Returns ``(subscriber, updates)``
        per slot, in order."""

    @abc.abstractmethod
    def rebound_one(
        self, subscriber_id: int, numerical: float, staleness: float, order: float, now: float
    ):
        """A retune of one subscription, on scalars (a chunk crossing,
        S33): install the three bounds on ``subscriber_id``'s
        subscription and, if its queue is pending, check it in
        ``Bounds.tripped_dimension``'s precedence and drain it if tripped.

        Returns ``(examined, reason, updates, deadline)``: 1 if a pending
        queue was checked, else 0; the tripped dimension and the drained
        updates, or ``None`` twice; and ``oldest + staleness`` of a queue
        left pending (``inf`` otherwise). A subscriber that is not
        subscribed is ``(0, None, None, inf)`` and writes nothing.
        """

    def restore_subscription(self, subscriber: "Subscriber", snap: SubscriptionSnapshot):
        """Recreate a subscription exactly as a snapshot recorded it.

        The restart path (S20): ``subscriber`` is the *fresh runtime*
        callback object (delivery handlers are never persisted) while
        ``snap`` carries the durable half — queue contents, bounds and
        accounting, restored bit-for-bit rather than replayed through
        :meth:`~repro.core.dyconit.SubscriptionState.enqueue` (which
        would recompute ``accumulated_error`` without the superseded
        updates' weights). Must not be called for an already-subscribed
        id; returns the new subscription-state object.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support subscription restore"
        )


class StateStore(abc.ABC):
    """Factory and lifecycle owner of dyconit state handles.

    One store serves one :class:`~repro.core.manager.DyconitSystem`.
    The store decides *where* subscription queues and conit accounting
    live; the manager keeps its own ``dict`` of live handles (a cache,
    not the source of truth for persistent backends) and tells the
    store when a dyconit is gone so persistent rows can be collected.
    """

    #: Registry name (``"memory"``, ``"sqlite"``).
    name: str = "abstract"

    @abc.abstractmethod
    def create_dyconit_state(
        self, dyconit_id: Hashable, *, merging: bool
    ) -> DyconitStateHandle:
        """Create (or, for persistent stores, re-attach) a dyconit's state.

        The store alone decides the representation (S17 columns, rows);
        the manager drives every handle through the same batched calls.
        """

    def drop_dyconit_state(self, dyconit_id: Hashable) -> None:
        """The manager removed this dyconit (or merged it away)."""

    def reset(self) -> None:
        """Delete every dyconit row this store can see (checkpoints stay).

        A file-backed store may hold rows from an earlier run in the
        same database; the restore path wipes them before replaying a
        checkpoint so stale rows — including rows written *after* the
        checkpoint by a run that was later killed — can never leak into
        the resumed run. The in-memory store starts empty, so the
        default is a no-op.
        """

    def save_checkpoint(self, key: str, blob: bytes) -> None:
        """Durably store an opaque checkpoint blob under ``key``.

        Overwrites any previous blob with the same key. Persistent
        stores must write this atomically with respect to process death
        (a killed writer leaves either the old or the new blob, never a
        torn one). The default keeps blobs in-process — correct for the
        memory store, whose whole point is no durability.
        """
        self._memory_checkpoints()[key] = bytes(blob)

    def load_checkpoint(self, key: str) -> bytes | None:
        """Return the blob stored under ``key``, or ``None``."""
        return self._memory_checkpoints().get(key)

    def checkpoint_keys(self) -> list[str]:
        """All stored checkpoint keys, oldest first."""
        return list(self._memory_checkpoints())

    def _memory_checkpoints(self) -> dict[str, bytes]:
        store = getattr(self, "_checkpoints", None)
        if store is None:
            store = self._checkpoints = {}
        return store

    def close(self) -> None:
        """Release backend resources (connections, files)."""

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
