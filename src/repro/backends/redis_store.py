"""Redis-backed :class:`StateStore` adapter (env-gated).

Mirrors the SQLite adapter's data model on Redis primitives:

* ``sub:{dyconit}:{sub_id}`` — a hash of the accounting row (bounds,
  accumulated error, oldest-pending time, enqueue/merge counters);
* ``subpos:{dyconit}`` — a sorted set ordering subscriptions by their
  store-global insertion position;
* ``q:{dyconit}:{sub_id}`` — a sorted set of pickled updates scored by
  a store-global enqueue sequence (supersede = ZREM old + ZADD new, so
  score order reproduces legacy dict insertion order);
* ``qk:{dyconit}:{sub_id}`` — merge-key → current member, the supersede
  index.

The adapter needs a reachable Redis and the ``redis`` client package;
construction raises :class:`BackendUnavailable` otherwise, which the
conformance suite reports as a skip. Point ``REPRO_REDIS_URL`` at a
server (e.g. ``redis://localhost:6379/0``) to include it in the suite —
the CI containers in this repo do not run one, so the adapter rides
behind the gate until a Redis service joins the workflow.
"""

from __future__ import annotations

import os
import pickle
from typing import Hashable

from repro.backends.base import (
    BackendUnavailable,
    DyconitStateHandle,
    StateStore,
    SubscriptionSnapshot,
)
from repro.core.bounds import Bounds
from repro.core.dyconit import EnqueueResult, SubscriptionState
from repro.core.subscription import Subscriber
from repro.core.update import Update

#: Environment variable gating the adapter (and carrying the server URL).
REDIS_URL_ENV = "REPRO_REDIS_URL"


def _blob(value) -> bytes:
    return pickle.dumps(value, protocol=4)


def _connect(url: str | None):
    if url is None:
        url = os.environ.get(REDIS_URL_ENV)
    if not url:
        raise BackendUnavailable(
            f"redis backend requires {REDIS_URL_ENV} to point at a server"
        )
    try:
        import redis  # noqa: PLC0415 - optional dependency, gated import
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise BackendUnavailable("the 'redis' client package is not installed") from exc
    client = redis.Redis.from_url(url)
    try:
        client.ping()
    except Exception as exc:  # pragma: no cover - depends on environment
        raise BackendUnavailable(f"redis server at {url} is unreachable") from exc
    return client


class RedisStateStore(StateStore):
    """Dyconit state in a Redis database."""

    name = "redis"

    def __init__(self, url: str | None = None, namespace: str = "repro") -> None:
        self._r = _connect(url)
        self._ns = namespace
        seq = self._r.get(f"{namespace}:seq")
        self._seq = int(seq) + 1 if seq else 1
        pos = self._r.get(f"{namespace}:pos")
        self._pos = int(pos) + 1 if pos else 1

    # -- key helpers ---------------------------------------------------

    def _dk(self, dyconit_id: Hashable) -> str:
        return _blob(dyconit_id).hex()

    def _hash_key(self, dk: str, sub_id: int) -> str:
        return f"{self._ns}:sub:{dk}:{sub_id}"

    def _queue_key(self, dk: str, sub_id: int) -> str:
        return f"{self._ns}:q:{dk}:{sub_id}"

    def _index_key(self, dk: str, sub_id: int) -> str:
        return f"{self._ns}:qk:{dk}:{sub_id}"

    def _pos_key(self, dk: str) -> str:
        return f"{self._ns}:subpos:{dk}"

    def next_seq(self) -> int:
        seq, self._seq = self._seq, self._seq + 1
        self._r.set(f"{self._ns}:seq", seq)
        return seq

    def next_pos(self) -> int:
        pos, self._pos = self._pos, self._pos + 1
        self._r.set(f"{self._ns}:pos", pos)
        return pos

    # -- StateStore surface --------------------------------------------

    def create_dyconit_state(
        self, dyconit_id: Hashable, *, merging: bool
    ) -> "RedisDyconitState":
        return RedisDyconitState(self, dyconit_id, merging=merging)

    def drop_dyconit_state(self, dyconit_id: Hashable) -> None:
        dk = self._dk(dyconit_id)
        for sub_id in self._r.zrange(self._pos_key(dk), 0, -1):
            sub = int(sub_id)
            self._r.delete(
                self._hash_key(dk, sub), self._queue_key(dk, sub),
                self._index_key(dk, sub),
            )
        self._r.delete(self._pos_key(dk))

    # -- restart surface (S20) -----------------------------------------

    def _ckpt_hash(self) -> str:
        return f"{self._ns}:ckpt"

    def _ckpt_order(self) -> str:
        return f"{self._ns}:ckptord"

    def reset(self) -> None:
        """Wipe all dyconit keys in this namespace; checkpoints survive.

        Also the cleanup a test must run before relying on a clean
        slate: the namespace is shared server state, so rows from an
        earlier run re-attach silently otherwise.
        """
        keep = (self._ckpt_hash(), self._ckpt_order())
        stale = [
            key
            for key in self._r.scan_iter(match=f"{self._ns}:*")
            if key.decode() not in keep
        ]
        if stale:
            self._r.delete(*stale)
        self._seq = 1
        self._pos = 1

    def save_checkpoint(self, key: str, blob: bytes) -> None:
        pipe = self._r.pipeline(transaction=True)
        pipe.hset(self._ckpt_hash(), key, blob)
        pipe.zadd(self._ckpt_order(), {key: self._r.incr(f"{self._ns}:ckptseq")},
                  nx=True)
        pipe.execute()

    def load_checkpoint(self, key: str) -> bytes | None:
        return self._r.hget(self._ckpt_hash(), key)

    def checkpoint_keys(self) -> list[str]:
        return [key.decode() for key in self._r.zrange(self._ckpt_order(), 0, -1)]

    def close(self) -> None:
        self._r.close()


class RedisSubscriptionView:
    """A :class:`SubscriptionState`-compatible window onto Redis keys."""

    __slots__ = ("_handle", "subscriber")

    def __init__(self, handle: "RedisDyconitState", subscriber: Subscriber) -> None:
        self._handle = handle
        self.subscriber = subscriber

    def _keys(self) -> tuple[str, str, str]:
        store, dk = self._handle._store, self._handle._dkh
        sub_id = self.subscriber.subscriber_id
        return (
            store._hash_key(dk, sub_id),
            store._queue_key(dk, sub_id),
            store._index_key(dk, sub_id),
        )

    def _field(self, name: str) -> bytes | None:
        hk, __, __ = self._keys()
        return self._handle._store._r.hget(hk, name)

    @property
    def merging(self) -> bool:
        return self._handle.merging

    @property
    def bounds(self) -> Bounds:
        hk, __, __ = self._keys()
        row = self._handle._store._r.hmget(hk, "b_num", "b_stale", "b_order")
        if row[0] is None:
            return Bounds.INFINITE
        return Bounds(float(row[0]), float(row[1]), float(row[2]))

    @bounds.setter
    def bounds(self, bounds: Bounds) -> None:
        hk, __, __ = self._keys()
        self._handle._store._r.hset(
            hk,
            mapping={
                "b_num": bounds.numerical,
                "b_stale": bounds.staleness_ms,
                "b_order": bounds.order,
            },
        )

    @property
    def accumulated_error(self) -> float:
        value = self._field("acc_error")
        return 0.0 if value is None else float(value)

    @property
    def oldest_pending_time(self) -> float | None:
        value = self._field("oldest")
        if value is None or value == b"":
            return None
        return float(value)

    @property
    def enqueued_count(self) -> int:
        value = self._field("enqueued")
        return 0 if value is None else int(value)

    @property
    def merged_count(self) -> int:
        value = self._field("merged")
        return 0 if value is None else int(value)

    @property
    def pending(self) -> dict[tuple, Update]:
        __, qk, __ = self._keys()
        members = self._handle._store._r.zrange(qk, 0, -1)
        out: dict[tuple, Update] = {}
        for member in members:
            key, update = pickle.loads(member)
            out[key] = update
        return out

    @property
    def has_pending(self) -> bool:
        return self.oldest_pending_time is not None

    def oldest_age_ms(self, now: float) -> float:
        oldest = self.oldest_pending_time
        return 0.0 if oldest is None else now - oldest

    def tripped_dimension(self, now: float) -> str | None:
        if not self.has_pending:
            return None
        __, qk, __ = self._keys()
        count = self._handle._store._r.zcard(qk)
        return self.bounds.tripped_dimension(
            self.accumulated_error, self.oldest_age_ms(now), count
        )

    def exceeds_bounds(self, now: float) -> bool:
        return self.tripped_dimension(now) is not None

    def enqueue(self, update: Update) -> EnqueueResult:
        r = self._handle._store._r
        hk, qk, ik = self._keys()
        enqueued = self.enqueued_count
        key = (
            update.merge_key if self._handle.merging else (enqueued, update.merge_key)
        )
        mkey = _blob(key)
        old = r.hget(ik, mkey)
        superseded = old is not None
        if superseded:
            r.zrem(qk, old)
            r.hincrby(hk, "merged", 1)
        member = _blob((key, update))
        r.zadd(qk, {member: self._handle._store.next_seq()})
        r.hset(ik, mkey, member)
        became_pending = self.oldest_pending_time is None
        r.hset(hk, "acc_error", self.accumulated_error + update.weight)
        if became_pending:
            r.hset(hk, "oldest", update.time)
        r.hincrby(hk, "enqueued", 1)
        return EnqueueResult(superseded=superseded, became_pending=became_pending)

    def drain(self) -> list[Update]:
        r = self._handle._store._r
        hk, qk, ik = self._keys()
        members = r.zrange(qk, 0, -1)
        r.delete(qk, ik)
        r.hset(hk, mapping={"acc_error": 0.0, "oldest": ""})
        return [pickle.loads(member)[1] for member in members]

    def restore_time_order(self) -> None:
        r = self._handle._store._r
        hk, qk, __ = self._keys()
        members = r.zrange(qk, 0, -1)
        if not members:
            return
        pairs = [pickle.loads(member) for member in members]
        order = sorted(range(len(pairs)), key=lambda i: pairs[i][1].time)
        r.delete(qk)
        mapping = {}
        for i in order:
            mapping[members[i]] = self._handle._store.next_seq()
        r.zadd(qk, mapping)
        first_time = pairs[order[0]][1].time
        oldest = self.oldest_pending_time
        if oldest is None or first_time < oldest:
            r.hset(hk, "oldest", first_time)


class RedisDyconitState(DyconitStateHandle):
    """One dyconit's subscriptions, resident in Redis."""

    def __init__(
        self, store: RedisStateStore, dyconit_id: Hashable, merging: bool = True
    ) -> None:
        self._store = store
        self.dyconit_id = dyconit_id
        self._dkh = store._dk(dyconit_id)
        self.merging = merging
        self.default_bounds = Bounds.ZERO
        self.total_committed_weight = 0.0
        self.commit_count = 0
        self._views: dict[int, RedisSubscriptionView] = {}

    @property
    def subscriber_count(self) -> int:
        return len(self._views)

    def subscribers(self) -> list[Subscriber]:
        return [view.subscriber for view in self._views.values()]

    def subscription_states(self) -> list[RedisSubscriptionView]:
        return list(self._views.values())

    def is_subscribed(self, subscriber_id: int) -> bool:
        return subscriber_id in self._views

    def subscribe(
        self, subscriber: Subscriber, bounds: Bounds | None = None
    ) -> RedisSubscriptionView:
        sub_id = subscriber.subscriber_id
        view = self._views.get(sub_id)
        if view is not None:
            if bounds is not None:
                view.bounds = bounds
            return view
        view = RedisSubscriptionView(self, subscriber)
        self._views[sub_id] = view
        store = self._store
        if store._r.exists(store._hash_key(self._dkh, sub_id)):
            if bounds is not None:
                view.bounds = bounds
            return view
        effective = bounds if bounds is not None else self.default_bounds
        store._r.hset(
            store._hash_key(self._dkh, sub_id),
            mapping={
                "b_num": effective.numerical,
                "b_stale": effective.staleness_ms,
                "b_order": effective.order,
                "acc_error": 0.0,
                "oldest": "",
                "enqueued": 0,
                "merged": 0,
            },
        )
        store._r.zadd(store._pos_key(self._dkh), {str(sub_id): store.next_pos()})
        return view

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        view = self._views.pop(subscriber_id, None)
        if view is None:
            return None
        state = SubscriptionState(
            subscriber=view.subscriber,
            bounds=view.bounds,
            pending=dict(view.pending),
            accumulated_error=view.accumulated_error,
            oldest_pending_time=view.oldest_pending_time,
            enqueued_count=view.enqueued_count,
            merged_count=view.merged_count,
            merging=self.merging,
        )
        store = self._store
        store._r.delete(
            store._hash_key(self._dkh, subscriber_id),
            store._queue_key(self._dkh, subscriber_id),
            store._index_key(self._dkh, subscriber_id),
        )
        store._r.zrem(store._pos_key(self._dkh), str(subscriber_id))
        return state

    def get_state(self, subscriber_id: int) -> RedisSubscriptionView | None:
        return self._views.get(subscriber_id)

    def restore_subscription(
        self, subscriber: Subscriber, snap: SubscriptionSnapshot
    ) -> RedisSubscriptionView:
        """Write one snapshot back as keys — floats verbatim, queue order
        reproduced with fresh seqs (see :class:`SubscriptionSnapshot`)."""
        sub_id = subscriber.subscriber_id
        if sub_id in self._views:
            raise ValueError(
                f"subscriber {sub_id} already subscribed to {self.dyconit_id!r}"
            )
        store = self._store
        hk = store._hash_key(self._dkh, sub_id)
        qk = store._queue_key(self._dkh, sub_id)
        ik = store._index_key(self._dkh, sub_id)
        store._r.delete(hk, qk, ik)
        store._r.hset(
            hk,
            mapping={
                "b_num": snap.bounds.numerical,
                "b_stale": snap.bounds.staleness_ms,
                "b_order": snap.bounds.order,
                # repr() round-trips binary64 exactly (shortest-repr),
                # matching how enqueue writes these fields.
                "acc_error": snap.accumulated_error,
                "oldest": (
                    "" if snap.oldest_pending_time is None
                    else snap.oldest_pending_time
                ),
                "enqueued": snap.enqueued_count,
                "merged": snap.merged_count,
            },
        )
        store._r.zadd(store._pos_key(self._dkh), {str(sub_id): store.next_pos()})
        for key, update in snap.pending:
            member = _blob((key, update))
            store._r.zadd(qk, {member: store.next_seq()})
            store._r.hset(ik, _blob(key), member)
        view = RedisSubscriptionView(self, subscriber)
        self._views[sub_id] = view
        return view

    def set_bounds(self, subscriber_id: int, bounds: Bounds) -> None:
        view = self._views.get(subscriber_id)
        if view is None:
            raise KeyError(
                f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
            )
        view.bounds = bounds

    def commit(
        self, update: Update, exclude_subscriber: int | None = None
    ) -> list[tuple[RedisSubscriptionView, EnqueueResult]]:
        touched: list[tuple[RedisSubscriptionView, EnqueueResult]] = []
        for subscriber_id, view in self._views.items():
            if subscriber_id == exclude_subscriber:
                continue
            result = view.enqueue(update)
            touched.append((view, result))
        if touched:
            self.total_committed_weight += update.weight
            self.commit_count += 1
        return touched
