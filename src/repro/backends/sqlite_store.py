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

The manager's three hot calls — a commit, the due pass over a dyconit
and a retune — each run as a few statements for the whole dyconit
(S25): one read of its ``subs`` rows, ``executemany`` for the writes,
and one three-statement drain for every queue that tripped. A chunk
crossing's retune is one bound write and one row read per subscription
(S33). The per-subscription views serve everything else
(repartitioning, restore, the gateway's new bounds, forced flushes).

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

import math
import pickle
import sqlite3
from dataclasses import dataclass
from itertools import repeat
from types import SimpleNamespace
from typing import Hashable

import numpy as np

from repro.backends.base import DyconitStateHandle, StateStore, SubscriptionSnapshot
from repro.core.bounds import Bounds, tripped_dimension_of
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
#: A dyconit's subscriptions named in one statement: ``{subs}`` is filled
#: with one placeholder per subscriber id at the call.
_SOME_SUBS = "WHERE dyconit = ? AND sub_id IN ({subs})"

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
    "sub_final": (
        "SELECT b_num, b_stale, b_order, acc_error, oldest, enqueued, merged "
        f"FROM subs {_ONE_SUB}"
    ),
    "subs_commit": (
        "SELECT sub_id, acc_error, oldest, enqueued, merged, b_num, b_stale, b_order "
        "FROM subs WHERE dyconit = ?"
    ),
    "subs_pending": (
        "SELECT sub_id, acc_error, oldest, b_stale FROM subs "
        "WHERE dyconit = ? AND oldest IS NOT NULL"
    ),
    "sub_delete": f"DELETE FROM subs {_ONE_SUB}",
    "set_bounds": f"UPDATE subs SET b_num = ?, b_stale = ?, b_order = ? {_ONE_SUB}",
    "set_accounting": (
        f"UPDATE subs SET acc_error = ?, oldest = ?, enqueued = ?, merged = ? {_ONE_SUB}"
    ),
    "set_oldest": f"UPDATE subs SET oldest = ? {_ONE_SUB}",
    "clear_accounting": f"UPDATE subs SET acc_error = 0.0, oldest = NULL {_ONE_SUB}",
    "clear_accounting_subs": f"UPDATE subs SET acc_error = 0.0, oldest = NULL {_SOME_SUBS}",
    "pending_items": f"SELECT mkey, blob FROM pending {_ONE_SUB} ORDER BY seq",
    "pending_blobs": f"SELECT blob FROM pending {_ONE_SUB} ORDER BY seq",
    "pending_rows": f"SELECT seq, mkey, time, blob FROM pending {_ONE_SUB} ORDER BY seq",
    "pending_count": f"SELECT COUNT(*) FROM pending {_ONE_SUB}",
    "pending_counts": "SELECT sub_id, COUNT(*) FROM pending WHERE dyconit = ? GROUP BY sub_id",
    "pending_key_holders": "SELECT sub_id FROM pending WHERE dyconit = ? AND mkey = ?",
    "pending_of_subs": f"SELECT sub_id, blob FROM pending {_SOME_SUBS} ORDER BY seq",
    "pending_delete_subs": f"DELETE FROM pending {_SOME_SUBS}",
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
        self._placeholder = dialect.placeholder
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
        count = 0  # only an order bound reads it, and ``count > inf`` never holds
        if b_order != math.inf:
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

    def subscriber_ids(self) -> np.ndarray:
        return np.fromiter(self._views, np.int64, len(self._views))

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
        key = (self._dk, subscriber_id)
        b_num, b_stale, b_order, error, oldest, enqueued, merged = self._conn.execute(
            self._sql.sub_final, key
        ).fetchone()
        rows = self._conn.execute(self._sql.pending_items, key).fetchall()
        state = SubscriptionState(
            subscriber=view.subscriber,
            bounds=Bounds(b_num, b_stale, b_order),
            pending={pickle.loads(mkey): pickle.loads(blob) for mkey, blob in rows},
            accumulated_error=error,
            oldest_pending_time=oldest,
            enqueued_count=enqueued,
            merged_count=merged,
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

    # -- the batched surface (S25) -------------------------------------

    def commit(self, update: Update, exclude_subscriber: int | None, now: float):
        """Enqueue ``update`` for every subscriber but the excluded one in
        a few statements for the whole dyconit: one ``subs`` read, one
        supersede lookup, then one ``executemany`` each for the
        superseded rows' deletes, the inserts and the accounting writes.

        The update is pickled once (and, when merging, its merge key
        once); seqs are taken in subscription order, as the per-view walk
        took them; the error is the same float add on the value the row
        held. The trip check runs here on the values just written, and
        the queues it trips drain together. Returns what
        :meth:`~repro.core.dyconit.Dyconit.commit`
        returns.
        """
        targets = [
            (sub_id, view)
            for sub_id, view in self._views.items()
            if sub_id != exclude_subscriber
        ]
        if not targets:
            return 0, 0, math.inf, None
        conn, sql, dk = self._conn, self._sql, self._dk
        rows = {row[0]: row for row in conn.execute(sql.subs_commit, (dk,)).fetchall()}
        blob = _blob(update)
        weight, time = update.weight, update.time
        merging = self.merging
        holders = ()
        if merging:
            mkey = _blob(update.merge_key)
            holders = {
                sub_id
                for (sub_id,) in conn.execute(sql.pending_key_holders, (dk, mkey)).fetchall()
            }
        # Without merging a key is (enqueued, merge key) and enqueued only
        # grows, so no queued key can match: no lookup, as in the columns.
        counts = None  # queue lengths, read only if an order bound is finite
        next_seq = self._store.next_seq
        deletes, inserts, accounting, tripped = [], [], [], []
        n_merged = 0
        became_due = math.inf
        for sub_id, view in targets:
            __, error, oldest, enqueued, merged, b_num, b_stale, b_order = rows[sub_id]
            if not merging:
                mkey = _blob((enqueued, update.merge_key))
            superseded = sub_id in holders
            if superseded:
                deletes.append((dk, sub_id, mkey))
                merged += 1
                n_merged += 1
            inserts.append((dk, sub_id, next_seq(), mkey, time, blob))
            error += weight  # same float add as the per-object path
            became_pending = oldest is None
            if became_pending:
                oldest = time
            accounting.append((error, oldest, enqueued + 1, merged, dk, sub_id))
            count = 0
            if b_order != math.inf:
                if counts is None:
                    counts = dict(conn.execute(sql.pending_counts, (dk,)).fetchall())
                count = counts.get(sub_id, 0) + 1 - superseded
            reason = tripped_dimension_of(error, now - oldest, count, b_num, b_stale, b_order)
            if reason is not None:
                tripped.append((sub_id, view.subscriber, reason))
            elif became_pending and time + b_stale < became_due:
                became_due = time + b_stale
        cursor = conn.cursor()
        if deletes:
            cursor.executemany(sql.pending_delete_key, deletes)
        cursor.executemany(sql.pending_insert, inserts)
        cursor.executemany(sql.set_accounting, accounting)
        # Hotness counts commits that enqueued for someone — same rule as
        # the in-memory paths.
        self.total_committed_weight += weight
        self.commit_count += 1
        # Every tripped queue ends in this update: hand on the object
        # committed rather than a copy of it.
        flushed = self._drain(tripped, {blob: update}) if tripped else None
        return len(targets), n_merged, became_due, flushed

    def drain_due(self, now: float):
        """The due pass (S22) over rows: one read of ``(sub_id, oldest,
        b_stale)`` over the pending subscriptions, then one batched drain
        of those with ``oldest + staleness <= now``. Returns what
        :meth:`~repro.core.dyconit.Dyconit.drain_due`
        returns."""
        pending = {
            sub_id: (oldest, b_stale)
            for sub_id, __, oldest, b_stale in self._conn.execute(
                self._sql.subs_pending, (self._dk,)
            ).fetchall()
        }
        examined = 0
        due = []  # (sub_id, subscriber, deadline)
        next_deadline = math.inf
        for sub_id, view in self._views.items():
            row = pending.get(sub_id)
            if row is None:
                continue
            examined += 1
            deadline = row[0] + row[1]
            if deadline <= now:
                due.append((sub_id, view.subscriber, deadline))
            elif deadline < next_deadline:
                next_deadline = deadline
        return examined, self._drain(due, {}) if due else [], next_deadline

    def rebound(self, slots, bounds, check_order: bool = True):
        """A retune sweep's install (S23, S37) over rows: one
        ``executemany`` bound write and one read of the pending
        subscriptions' error and age (a count read too if
        ``check_order``). Returns what
        :meth:`~repro.core.dyconit.Dyconit.rebound` returns."""
        conn, sql, dk = self._conn, self._sql, self._dk
        sub_ids = list(self._views)
        chosen = [sub_ids[slot] for slot in slots]
        conn.cursor().executemany(
            sql.set_bounds, list(zip(*bounds.tolist(), repeat(dk), chosen))
        )
        pending = {
            sub_id: (error, oldest)
            for sub_id, error, oldest, __ in conn.execute(sql.subs_pending, (dk,)).fetchall()
        }
        if pending.keys().isdisjoint(chosen):
            return None
        rows = [pending.get(sub_id, (0.0, math.inf)) for sub_id in chosen]
        error, oldest = np.array(rows, dtype=np.float64).reshape(-1, 2).T
        counts = None
        if check_order:
            queued = dict(conn.execute(sql.pending_counts, (dk,)).fetchall())
            counts = np.array([queued.get(sub_id, 0) for sub_id in chosen], dtype=np.int64)
        return error, oldest, counts

    def drain_slots(self, slots):
        """Drain the queues at ``slots`` in one batched drain. Returns
        what :meth:`~repro.core.dyconit.Dyconit.drain_slots` returns."""
        views = list(self._views.items())
        entries = [(views[slot][0], views[slot][1].subscriber, None) for slot in slots]
        return [(subscriber, updates) for subscriber, __, updates in self._drain(entries, {})]

    def rebound_one(self, subscriber_id, numerical, staleness, order, now: float):
        """A retune of one subscription (a chunk crossing, S33):
        one bound write, one read of the row's error and age, and the
        drain if the new bounds trip it. Returns what
        :meth:`~repro.core.dyconit.Dyconit.rebound_one` returns."""
        view = self._views.get(subscriber_id)
        if view is None:
            return 0, None, None, math.inf
        conn, sql = self._conn, self._sql
        key = (self._dk, subscriber_id)
        conn.execute(sql.set_bounds, (numerical, staleness, order, *key))
        error, oldest, __, __ = conn.execute(sql.sub_accounting, key).fetchone()
        if oldest is None:
            return 0, None, None, math.inf
        count = 0  # only an order bound reads it, and ``count > inf`` never holds
        if order != math.inf:
            (count,) = conn.execute(sql.pending_count, key).fetchone()
        reason = tripped_dimension_of(error, now - oldest, count, numerical, staleness, order)
        if reason is None:
            return 1, None, None, oldest + staleness
        ((__, __, updates),) = self._drain([(subscriber_id, view.subscriber, reason)], {})
        return 1, reason, updates, math.inf

    def _drain(self, entries: list[tuple], decoded: dict[bytes, Update]) -> list[tuple]:
        """Drain several subscriptions' queues in three statements: their
        pending rows in seq order, one delete, one accounting reset.
        ``entries`` are ``(sub_id, subscriber, tag)``; returns
        ``(subscriber, tag, updates)`` for each, in order.

        Each distinct blob is unpickled once per call (``decoded`` maps
        blob to update, and may come seeded), so subscribers drained
        together share one update object per committed update.
        """
        sub_ids = [sub_id for sub_id, __, __ in entries]
        subs = ", ".join([self._store._placeholder] * len(sub_ids))
        params = (self._dk, *sub_ids)
        conn, sql = self._conn, self._sql
        queues: dict[int, list[Update]] = {sub_id: [] for sub_id in sub_ids}
        for sub_id, blob in conn.execute(
            sql.pending_of_subs.format(subs=subs), params
        ).fetchall():
            update = decoded.get(blob)
            if update is None:
                update = decoded[blob] = pickle.loads(blob)
            queues[sub_id].append(update)
        conn.execute(sql.pending_delete_subs.format(subs=subs), params)
        conn.execute(sql.clear_accounting_subs.format(subs=subs), params)
        return [(subscriber, tag, queues[sub_id]) for sub_id, subscriber, tag in entries]

    def __repr__(self) -> str:
        return (
            f"SQLiteDyconitState({self.dyconit_id!r}, "
            f"subscribers={self.subscriber_count}, commits={self.commit_count})"
        )
