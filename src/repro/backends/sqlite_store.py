"""The SQL row store: :class:`StateStore` over a SQL database.

Subscription queues and conit accounting live in two tables:

* ``subs(dyconit, sub_id, pos, b_num, b_stale, b_order, acc_error,
  oldest, enqueued, merged)`` — one row per live subscription; ``pos``
  is a store-global insertion counter so iteration order over a
  dyconit's subscriptions equals legacy dict insertion order.
* ``pending(dyconit, sub_id, seq, mkey, time, blob)`` — one row per
  queued update; ``seq`` is a store-global enqueue counter, and a
  supersede deletes the old row before inserting the new one, so
  ``ORDER BY seq`` reproduces the legacy delete-then-reinsert dict
  order exactly (the property the sort-free drain relies on).

Dyconit ids and merge keys are pickled to blobs (equal tuples of
primitives pickle to equal bytes within a process); updates are pickled
whole — world events are frozen dataclasses, so an unpickled update is
value-equal to the committed one and encodes to identical packets.
Floats round-trip exactly (the float column is IEEE-754 binary64 in
every dialect), and every read-modify-write performs the same Python
float additions in the same order as the in-memory path, so the
accounting is *bit*-compatible, not just approximately equal — the
conformance suite and the SQLite fuzz twin assert as much.

One implementation, several databases: store, handle and view talk to a
connection that offers ``execute(sql, params) -> cursor`` and
``cursor()`` with ``executemany`` (``sqlite3.Connection`` and a psycopg
3 connection both do), and
everything that differs between databases is a :class:`Dialect` fixed
when the store is built. Statement texts are written once below with
``?`` placeholders and rendered once per store. The handle and view
classes keep their ``SQLite…`` names (SQLite is the dialect that runs
everywhere); :mod:`repro.backends.postgres_store` adds the Postgres one.

Persistence semantics: dropping a dyconit (or the whole system) deletes
its rows, but a handle re-created over surviving rows *re-attaches* —
``subscribe`` with an id that still owns a row resumes its queue and
accounting instead of resetting them (subscriber callbacks are runtime
objects and are never persisted).

Connections run in autocommit: sqlite3's default implicit-transaction
mode opens a transaction on the first write and this store never called
``commit()``, so a file-backed store used to silently roll back
*everything* when the connection closed — data only looked durable
because re-attach tests shared the connection. Checkpoint writes get an
explicit ``BEGIN … COMMIT`` so a process killed mid-save leaves the old
blob, never a torn one.
"""

from __future__ import annotations

import pickle
import sqlite3
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Hashable

from repro.backends.base import DyconitStateHandle, StateStore, SubscriptionSnapshot
from repro.core.bounds import Bounds
from repro.core.dyconit import EnqueueResult, SubscriptionState
from repro.core.subscription import Subscriber
from repro.core.update import Update


def _blob(value) -> bytes:
    return pickle.dumps(value, protocol=4)


@dataclass(frozen=True)
class Dialect:
    """Everything that differs between the databases the row store runs on."""

    placeholder: str
    blob: str
    real: str
    integer: str
    #: Statements run on a fresh connection before the schema.
    setup: tuple[str, ...]
    #: Opens the checkpoint write's explicit transaction.
    begin: str


SQLITE = Dialect(
    placeholder="?",
    blob="BLOB",
    real="REAL",
    integer="INTEGER",
    # The simulation is the single writer and owns durability at the
    # run level; per-statement fsync would only distort benchmarks.
    setup=("PRAGMA synchronous=OFF",),
    begin="BEGIN IMMEDIATE",
)

_SCHEMA = (
    """
CREATE TABLE IF NOT EXISTS subs (
    dyconit {blob} NOT NULL,
    sub_id {integer} NOT NULL,
    pos {integer} NOT NULL,
    b_num {real} NOT NULL,
    b_stale {real} NOT NULL,
    b_order {real} NOT NULL,
    acc_error {real} NOT NULL,
    oldest {real},
    enqueued {integer} NOT NULL,
    merged {integer} NOT NULL,
    PRIMARY KEY (dyconit, sub_id)
)""",
    """
CREATE TABLE IF NOT EXISTS pending (
    dyconit {blob} NOT NULL,
    sub_id {integer} NOT NULL,
    seq {integer} NOT NULL,
    mkey {blob} NOT NULL,
    time {real} NOT NULL,
    blob {blob} NOT NULL,
    PRIMARY KEY (dyconit, sub_id, seq)
)""",
    "CREATE INDEX IF NOT EXISTS pending_by_key ON pending (dyconit, sub_id, mkey)",
    """
CREATE TABLE IF NOT EXISTS checkpoints (
    key TEXT PRIMARY KEY,
    ord {integer} NOT NULL,
    blob {blob} NOT NULL
)""",
)

_ONE_SUB = "WHERE dyconit = ? AND sub_id = ?"

#: Every parameterised statement the store issues, by name, written with
#: ``?``; :class:`SQLRowStore` renders them in its dialect's placeholder.
_STATEMENTS = {
    "drop_subs": "DELETE FROM subs WHERE dyconit = ?",
    "drop_pending": "DELETE FROM pending WHERE dyconit = ?",
    "checkpoint_ord": "SELECT ord FROM checkpoints WHERE key = ?",
    "checkpoint_update": "UPDATE checkpoints SET blob = ? WHERE key = ?",
    "checkpoint_insert": "INSERT INTO checkpoints (key, ord, blob) VALUES (?, ?, ?)",
    "checkpoint_load": "SELECT blob FROM checkpoints WHERE key = ?",
    "sub_exists": f"SELECT 1 FROM subs {_ONE_SUB}",
    "sub_bounds": f"SELECT b_num, b_stale, b_order FROM subs {_ONE_SUB}",
    "sub_error": f"SELECT acc_error FROM subs {_ONE_SUB}",
    "sub_oldest": f"SELECT oldest FROM subs {_ONE_SUB}",
    "sub_enqueued": f"SELECT enqueued FROM subs {_ONE_SUB}",
    "sub_merged": f"SELECT merged FROM subs {_ONE_SUB}",
    "sub_trip": f"SELECT acc_error, oldest, b_num, b_stale, b_order FROM subs {_ONE_SUB}",
    "sub_accounting": f"SELECT acc_error, oldest, enqueued, merged FROM subs {_ONE_SUB}",
    "sub_insert": (
        "INSERT INTO subs (dyconit, sub_id, pos, b_num, b_stale, b_order, "
        "acc_error, oldest, enqueued, merged) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
    ),
    "subs_pending": "SELECT sub_id, oldest FROM subs WHERE dyconit = ? AND oldest IS NOT NULL",
    "sub_delete": f"DELETE FROM subs {_ONE_SUB}",
    "set_bounds": f"UPDATE subs SET b_num = ?, b_stale = ?, b_order = ? {_ONE_SUB}",
    "set_accounting": (
        f"UPDATE subs SET acc_error = ?, oldest = ?, enqueued = ?, merged = ? {_ONE_SUB}"
    ),
    "set_oldest": f"UPDATE subs SET oldest = ? {_ONE_SUB}",
    "clear_accounting": f"UPDATE subs SET acc_error = 0.0, oldest = NULL {_ONE_SUB}",
    "pending_items": f"SELECT mkey, blob FROM pending {_ONE_SUB} ORDER BY seq",
    "pending_blobs": f"SELECT blob FROM pending {_ONE_SUB} ORDER BY seq",
    "pending_rows": f"SELECT seq, mkey, time, blob FROM pending {_ONE_SUB} ORDER BY seq",
    "pending_count": f"SELECT COUNT(*) FROM pending {_ONE_SUB}",
    "pending_has_key": f"SELECT 1 FROM pending {_ONE_SUB} AND mkey = ?",
    "pending_delete_key": f"DELETE FROM pending {_ONE_SUB} AND mkey = ?",
    "pending_insert": (
        "INSERT INTO pending (dyconit, sub_id, seq, mkey, time, blob) "
        "VALUES (?, ?, ?, ?, ?, ?)"
    ),
    "pending_delete": f"DELETE FROM pending {_ONE_SUB}",
}


class SQLRowStore(StateStore):
    """Dyconit state as rows behind ``conn``, spoken to in ``dialect``.

    ``conn`` is an autocommit connection with ``execute(sql, params)``
    returning a cursor, and ``close()``; the store owns it from here on.
    """

    def __init__(self, conn, dialect: Dialect) -> None:
        self._conn = conn
        self._closed = False
        self._begin = dialect.begin
        self._sql = SimpleNamespace(
            **{
                name: text.replace("?", dialect.placeholder)
                for name, text in _STATEMENTS.items()
            }
        )
        for statement in dialect.setup:
            conn.execute(statement)
        for statement in _SCHEMA:
            conn.execute(
                statement.format(
                    blob=dialect.blob, real=dialect.real, integer=dialect.integer
                )
            )
        row = conn.execute("SELECT MAX(seq) FROM pending").fetchone()
        self._seq = (row[0] or 0) + 1
        row = conn.execute("SELECT MAX(pos) FROM subs").fetchone()
        self._pos = (row[0] or 0) + 1

    def create_dyconit_state(
        self, dyconit_id: Hashable, *, merging: bool
    ) -> "SQLiteDyconitState":
        # Rows, not S17 columns: the manager's per-update commit walk
        # drives this handle.
        return SQLiteDyconitState(self, dyconit_id, merging=merging)

    def drop_dyconit_state(self, dyconit_id: Hashable) -> None:
        dk = _blob(dyconit_id)
        self._conn.execute(self._sql.drop_subs, (dk,))
        self._conn.execute(self._sql.drop_pending, (dk,))

    def next_seq(self) -> int:
        seq, self._seq = self._seq, self._seq + 1
        return seq

    def next_pos(self) -> int:
        pos, self._pos = self._pos, self._pos + 1
        return pos

    # -- restart surface (S20) -----------------------------------------

    def reset(self) -> None:
        """Wipe all dyconit rows; checkpoints survive.

        Restore runs this first so rows written *after* a checkpoint by
        a later-killed run can never leak into the resumed one.
        """
        self._conn.execute("DELETE FROM subs")
        self._conn.execute("DELETE FROM pending")
        self._seq = 1
        self._pos = 1

    def save_checkpoint(self, key: str, blob: bytes) -> None:
        conn, sql = self._conn, self._sql
        conn.execute(self._begin)
        try:
            row = conn.execute(sql.checkpoint_ord, (key,)).fetchone()
            if row is not None:
                conn.execute(sql.checkpoint_update, (blob, key))
            else:
                (top,) = conn.execute("SELECT MAX(ord) FROM checkpoints").fetchone()
                conn.execute(sql.checkpoint_insert, (key, (top or 0) + 1, blob))
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def load_checkpoint(self, key: str) -> bytes | None:
        row = self._conn.execute(self._sql.checkpoint_load, (key,)).fetchone()
        return None if row is None else row[0]

    def checkpoint_keys(self) -> list[str]:
        rows = self._conn.execute(
            "SELECT key FROM checkpoints ORDER BY ord"
        ).fetchall()
        return [key for (key,) in rows]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._conn.close()


class SQLiteStateStore(SQLRowStore):
    """Dyconit state in a SQLite database (``:memory:`` by default)."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        # Autocommit: the driver's default implicit-transaction mode
        # would roll every write back at close (nothing here commits).
        # check_same_thread=False: the gateway serves GET /store from
        # its HTTP thread while the simulation owns all writes; SQLite's
        # serialized threading mode makes the shared connection safe for
        # that single-writer/concurrent-reader split.
        super().__init__(
            sqlite3.connect(path, isolation_level=None, check_same_thread=False),
            SQLITE,
        )


class SQLiteSubscriptionView:
    """A :class:`SubscriptionState`-compatible window onto one subs row.

    Identity-stable (one per subscriber for the handle's lifetime), like
    the S17 flat views; every access reads the database, every mutation
    writes it — the row *is* the state.
    """

    __slots__ = ("_handle", "subscriber")

    def __init__(self, handle: "SQLiteDyconitState", subscriber: Subscriber) -> None:
        self._handle = handle
        self.subscriber = subscriber

    # -- row plumbing --------------------------------------------------

    def _key(self) -> tuple[bytes, int]:
        return (self._handle._dk, self.subscriber.subscriber_id)

    def _row(self, statement: str):
        """This subscription's subs row through one of the ``sub_*`` selects."""
        return self._handle._conn.execute(statement, self._key()).fetchone()

    @property
    def merging(self) -> bool:
        return self._handle.merging

    # -- bounds --------------------------------------------------------

    @property
    def bounds(self) -> Bounds:
        row = self._row(self._handle._sql.sub_bounds)
        if row is None:
            return Bounds.INFINITE
        return Bounds(row[0], row[1], row[2])

    @bounds.setter
    def bounds(self, bounds: Bounds) -> None:
        handle = self._handle
        handle._conn.execute(
            handle._sql.set_bounds,
            (bounds.numerical, bounds.staleness_ms, bounds.order, *self._key()),
        )

    # -- queue accounting ----------------------------------------------

    @property
    def accumulated_error(self) -> float:
        row = self._row(self._handle._sql.sub_error)
        return 0.0 if row is None else row[0]

    @property
    def oldest_pending_time(self) -> float | None:
        row = self._row(self._handle._sql.sub_oldest)
        return None if row is None else row[0]

    @property
    def enqueued_count(self) -> int:
        row = self._row(self._handle._sql.sub_enqueued)
        return 0 if row is None else row[0]

    @property
    def merged_count(self) -> int:
        row = self._row(self._handle._sql.sub_merged)
        return 0 if row is None else row[0]

    @property
    def pending(self) -> dict[tuple, Update]:
        handle = self._handle
        rows = handle._conn.execute(handle._sql.pending_items, self._key()).fetchall()
        return {pickle.loads(mkey): pickle.loads(blob) for mkey, blob in rows}

    @property
    def has_pending(self) -> bool:
        return self.oldest_pending_time is not None

    def oldest_age_ms(self, now: float) -> float:
        oldest = self.oldest_pending_time
        if oldest is None:
            return 0.0
        return now - oldest

    def tripped_dimension(self, now: float) -> str | None:
        handle = self._handle
        conn, sql = handle._conn, handle._sql
        key = self._key()
        row = conn.execute(sql.sub_trip, key).fetchone()
        if row is None or row[1] is None:
            return None
        acc_error, oldest, b_num, b_stale, b_order = row
        (count,) = conn.execute(sql.pending_count, key).fetchone()
        return Bounds(b_num, b_stale, b_order).tripped_dimension(
            acc_error, now - oldest, count
        )

    def exceeds_bounds(self, now: float) -> bool:
        return self.tripped_dimension(now) is not None

    # -- mutation ------------------------------------------------------

    def enqueue(self, update: Update) -> EnqueueResult:
        handle = self._handle
        conn, sql = handle._conn, handle._sql
        dk, sub_id = key = self._key()
        row = conn.execute(sql.sub_accounting, key).fetchone()
        if row is None:
            raise KeyError(
                f"subscriber {sub_id} is not subscribed to {handle.dyconit_id!r}"
            )
        acc_error, oldest, enqueued, merged = row
        key = update.merge_key if handle.merging else (enqueued, update.merge_key)
        mkey = _blob(key)
        superseded = (
            conn.execute(sql.pending_has_key, (dk, sub_id, mkey)).fetchone()
            is not None
        )
        if superseded:
            conn.execute(sql.pending_delete_key, (dk, sub_id, mkey))
            merged += 1
        conn.execute(
            sql.pending_insert,
            (dk, sub_id, handle._store.next_seq(), mkey, update.time, _blob(update)),
        )
        became_pending = oldest is None
        conn.execute(
            sql.set_accounting,
            (
                acc_error + update.weight,  # same float add as the legacy path
                update.time if became_pending else oldest,
                enqueued + 1,
                merged,
                dk,
                sub_id,
            ),
        )
        return EnqueueResult(superseded=superseded, became_pending=became_pending)

    def drain(self) -> list[Update]:
        handle = self._handle
        conn, sql = handle._conn, handle._sql
        key = self._key()
        rows = conn.execute(sql.pending_blobs, key).fetchall()
        conn.execute(sql.pending_delete, key)
        conn.execute(sql.clear_accounting, key)
        return [pickle.loads(blob) for (blob,) in rows]

    def restore_time_order(self) -> None:
        handle = self._handle
        conn, sql = handle._conn, handle._sql
        dk, sub_id = self._key()
        rows = conn.execute(sql.pending_rows, (dk, sub_id)).fetchall()
        if not rows:
            return
        # Stable by time: equal-time entries keep their current order —
        # the exact semantics of the legacy sorted() re-dict.
        ordered = sorted(rows, key=lambda row: row[2])
        conn.execute(sql.pending_delete, (dk, sub_id))
        for __, mkey, time, blob in ordered:
            conn.execute(
                sql.pending_insert,
                (dk, sub_id, handle._store.next_seq(), mkey, time, blob),
            )
        first_time = ordered[0][2]
        (oldest,) = self._row(sql.sub_oldest)
        if oldest is None or first_time < oldest:
            conn.execute(sql.set_oldest, (first_time, dk, sub_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SQLiteSubscriptionView(subscriber={self.subscriber.subscriber_id}, "
            f"dyconit={self._handle.dyconit_id!r})"
        )


class SQLiteDyconitState(DyconitStateHandle):
    """One dyconit's subscriptions, resident in the store's database."""

    def __init__(
        self, store: SQLRowStore, dyconit_id: Hashable, merging: bool = True
    ) -> None:
        self._store = store
        self._conn = store._conn
        self._sql = store._sql
        self.dyconit_id = dyconit_id
        self._dk = _blob(dyconit_id)
        self.merging = merging
        self.default_bounds = Bounds.ZERO
        self.total_committed_weight = 0.0
        self.commit_count = 0
        #: Runtime subscriber objects (delivery callbacks are not rows);
        #: insertion-ordered, mirroring legacy dict order for iteration.
        self._views: dict[int, SQLiteSubscriptionView] = {}

    # -- subscription management ---------------------------------------

    @property
    def subscriber_count(self) -> int:
        return len(self._views)

    def subscribers(self) -> list[Subscriber]:
        return [view.subscriber for view in self._views.values()]

    def subscription_states(self) -> list[SQLiteSubscriptionView]:
        return list(self._views.values())

    def is_subscribed(self, subscriber_id: int) -> bool:
        return subscriber_id in self._views

    def _insert_sub(
        self,
        sub_id: int,
        bounds: Bounds,
        accumulated_error: float = 0.0,
        oldest_pending_time: float | None = None,
        enqueued_count: int = 0,
        merged_count: int = 0,
    ) -> None:
        self._conn.execute(
            self._sql.sub_insert,
            (
                self._dk,
                sub_id,
                self._store.next_pos(),
                bounds.numerical,
                bounds.staleness_ms,
                bounds.order,
                accumulated_error,
                oldest_pending_time,
                enqueued_count,
                merged_count,
            ),
        )

    def _delete_sub(self, sub_id: int) -> None:
        self._conn.execute(self._sql.sub_delete, (self._dk, sub_id))
        self._conn.execute(self._sql.pending_delete, (self._dk, sub_id))

    def subscribe(
        self, subscriber: Subscriber, bounds: Bounds | None = None
    ) -> SQLiteSubscriptionView:
        sub_id = subscriber.subscriber_id
        view = self._views.get(sub_id)
        if view is not None:
            if bounds is not None:
                view.bounds = bounds
            return view
        view = SQLiteSubscriptionView(self, subscriber)
        self._views[sub_id] = view
        if view._row(self._sql.sub_exists) is not None:
            # Re-attach to a persisted subscription: the queue and its
            # accounting survive a handle (or process) restart.
            if bounds is not None:
                view.bounds = bounds
            return view
        self._insert_sub(sub_id, bounds if bounds is not None else self.default_bounds)
        return view

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        view = self._views.pop(subscriber_id, None)
        if view is None:
            return None
        # Materialize the final state (the caller may still flush it),
        # exactly like the flat store's unsubscribe.
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
        self._delete_sub(subscriber_id)
        return state

    def get_state(self, subscriber_id: int) -> SQLiteSubscriptionView | None:
        return self._views.get(subscriber_id)

    def restore_subscription(
        self, subscriber: Subscriber, snap: SubscriptionSnapshot
    ) -> SQLiteSubscriptionView:
        """Write one snapshot back as rows — floats verbatim, queue order
        reproduced with fresh seqs (see :class:`SubscriptionSnapshot`)."""
        sub_id = subscriber.subscriber_id
        if sub_id in self._views:
            raise ValueError(
                f"subscriber {sub_id} already subscribed to {self.dyconit_id!r}"
            )
        self._delete_sub(sub_id)
        self._insert_sub(
            sub_id,
            snap.bounds,
            snap.accumulated_error,
            snap.oldest_pending_time,
            snap.enqueued_count,
            snap.merged_count,
        )
        for key, update in snap.pending:
            self._conn.execute(
                self._sql.pending_insert,
                (self._dk, sub_id, self._store.next_seq(), _blob(key),
                 update.time, _blob(update)),
            )
        view = SQLiteSubscriptionView(self, subscriber)
        self._views[sub_id] = view
        return view

    def set_bounds(self, subscriber_id: int, bounds: Bounds) -> None:
        view = self._views.get(subscriber_id)
        if view is None:
            raise KeyError(
                f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
            )
        view.bounds = bounds

    def set_bounds_many(self, subscriber_ids: list[int], rows: list[tuple]) -> None:
        """Rewrite many subscriptions' bound columns in one
        ``executemany`` (a retune, S23)."""
        dk = self._dk
        self._conn.cursor().executemany(
            self._sql.set_bounds,
            [(*row, dk, sub_id) for sub_id, row in zip(subscriber_ids, rows)],
        )

    def pending_oldest(self) -> dict[int, float]:
        return dict(self._conn.execute(self._sql.subs_pending, (self._dk,)).fetchall())

    # -- commit path ---------------------------------------------------

    def commit(
        self, update: Update, exclude_subscriber: int | None = None
    ) -> list[tuple[SQLiteSubscriptionView, EnqueueResult]]:
        touched: list[tuple[SQLiteSubscriptionView, EnqueueResult]] = []
        for subscriber_id, view in self._views.items():
            if subscriber_id == exclude_subscriber:
                continue
            result = view.enqueue(update)
            touched.append((view, result))
        if touched:
            # Hotness counts commits that enqueued for someone — same
            # rule as the in-memory paths.
            self.total_committed_weight += update.weight
            self.commit_count += 1
        return touched

    def __repr__(self) -> str:
        return (
            f"SQLiteDyconitState({self.dyconit_id!r}, "
            f"subscribers={self.subscriber_count}, commits={self.commit_count})"
        )
