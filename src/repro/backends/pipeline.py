"""Out-of-process delivery pipeline over a durable spool (S20).

``BufferedEventBus`` proved the bus contract in-process; this module
promotes it to a real delivery spine. A :class:`SpoolEventBus` tees
every published flush into a SQLite-backed **spool** — an append-only
log of ``(seq, dyconit, subscriber, updates)`` rows — while an inner
bus (direct by default) keeps in-process delivery semantics unchanged,
so the simulation stays packet-identical whether or not the spool is
attached. A :class:`SpoolConsumer`, typically a **separate process**
(``python -m repro.backends.pipeline``), drains the spool into an
output journal and advances a durable per-consumer watermark.

Recovery contract: the consumer may die at any point. On restart it
resumes from its acked watermark and re-reads the tail of its own
output to skip sequence numbers already written, so the journal holds
every spooled batch **exactly once, in spool order**, across any number
of crashes — the pipeline twin of the engine's kill-and-resume
differential. ``--crash-after N`` exists so tests can kill the consumer
mid-stream deterministically.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sqlite3
import sys
import time
from typing import Sequence

from repro.backends.base import EventBus
from repro.backends.memory import DirectEventBus
from repro.core.subscription import Segment, Subscriber

_SPOOL_SCHEMA = """
CREATE TABLE IF NOT EXISTS spool (
    seq INTEGER PRIMARY KEY,
    dyconit BLOB NOT NULL,
    sub_id INTEGER NOT NULL,
    blob BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS consumers (
    name TEXT PRIMARY KEY,
    acked INTEGER NOT NULL
);
"""


def _open_spool(path: str) -> sqlite3.Connection:
    # Autocommit: rows must hit the file as they are written — a spool
    # that loses its tail on process death defeats its purpose.
    conn = sqlite3.connect(path, isolation_level=None)
    conn.execute("PRAGMA synchronous=OFF")
    conn.executescript(_SPOOL_SCHEMA)
    return conn


class SpoolEventBus(EventBus):
    """Tee published flushes into a durable spool file.

    In-process delivery is delegated to ``inner`` (direct by default),
    so attaching a spool never changes what subscribers see or when —
    it only adds the durable feed an external consumer drains.
    """

    name = "spool"

    def __init__(self, path: str, inner: EventBus | None = None) -> None:
        self.path = path
        self._inner = inner if inner is not None else DirectEventBus()
        self._conn = _open_spool(path)
        self._closed = False
        self.published = 0

    def publish(self, subscriber: Subscriber, segments: Sequence[Segment]) -> None:
        # One row per segment, one statement per delivery.
        self._conn.executemany(
            "INSERT INTO spool (dyconit, sub_id, blob) VALUES (?, ?, ?)",
            [
                (
                    pickle.dumps(dyconit_id, protocol=4),
                    subscriber.subscriber_id,
                    pickle.dumps(list(updates), protocol=4),
                )
                for dyconit_id, updates in segments
            ],
        )
        self.published += len(segments)
        self._inner.publish(subscriber, segments)

    def drain(self) -> int:
        return self._inner.drain()

    @property
    def spooled(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM spool").fetchone()
        return count

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._conn.close()
        self._inner.close()


class SpoolConsumer:
    """Drain a spool into a JSONL journal, exactly once per batch.

    The watermark (``consumers.acked``) is advanced only after the
    journal lines are flushed to disk; a crash between write and ack
    makes the next run re-read those rows, and the journal-tail scan in
    :meth:`__init__` is what de-duplicates them.
    """

    def __init__(self, spool_path: str, out_path: str, name: str = "consumer") -> None:
        self._conn = _open_spool(spool_path)
        self._name = name
        self._out_path = out_path
        self._written_through = self._scan_journal_tail()

    def _scan_journal_tail(self) -> int:
        """Highest seq already present in the output journal (0 if none)."""
        top = 0
        if os.path.exists(self._out_path):
            with open(self._out_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    top = max(top, json.loads(line)["seq"])
        return top

    @property
    def acked(self) -> int:
        row = self._conn.execute(
            "SELECT acked FROM consumers WHERE name = ?", (self._name,)
        ).fetchone()
        return 0 if row is None else row[0]

    def pending(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(*) FROM spool WHERE seq > ?", (self.acked,)
        ).fetchone()
        return count

    def process_once(self, crash_after: int | None = None) -> int:
        """Process every unacked row; returns journal lines written.

        ``crash_after`` kills the process (``os._exit``) after that many
        lines, *before* acking — the deterministic mid-batch death the
        recovery tests replay from.
        """
        acked = self.acked
        rows = self._conn.execute(
            "SELECT seq, dyconit, sub_id, blob FROM spool WHERE seq > ? "
            "ORDER BY seq",
            (acked,),
        ).fetchall()
        if not rows:
            return 0
        written = 0
        with open(self._out_path, "a", encoding="utf-8") as out:
            for seq, dyconit, sub_id, blob in rows:
                if seq <= self._written_through:
                    continue  # journaled by a run that died before acking
                updates = pickle.loads(blob)
                record = {
                    "seq": seq,
                    "dyconit": repr(pickle.loads(dyconit)),
                    "subscriber": sub_id,
                    "updates": len(updates),
                    "times": [update.time for update in updates],
                }
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                os.fsync(out.fileno())
                self._written_through = seq
                written += 1
                if crash_after is not None and written >= crash_after:
                    os._exit(17)  # simulated consumer death: no ack
        self._conn.execute(
            "INSERT INTO consumers (name, acked) VALUES (?, ?) "
            "ON CONFLICT (name) DO UPDATE SET acked = excluded.acked",
            (self._name, rows[-1][0]),
        )
        return written

    def close(self) -> None:
        self._conn.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Drain a dyconit delivery spool into a JSONL journal."
    )
    parser.add_argument("--spool", required=True, help="spool database path")
    parser.add_argument("--out", required=True, help="output journal (JSONL)")
    parser.add_argument("--name", default="consumer", help="consumer watermark name")
    parser.add_argument(
        "--once", action="store_true",
        help="process the current backlog and exit (default: poll forever)",
    )
    parser.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help="exit(17) after N journal lines without acking (recovery tests)",
    )
    parser.add_argument(
        "--poll-ms", type=int, default=50, help="idle poll interval (ms)"
    )
    args = parser.parse_args(argv)
    consumer = SpoolConsumer(args.spool, args.out, name=args.name)
    try:
        while True:
            written = consumer.process_once(crash_after=args.crash_after)
            if args.crash_after is not None:
                args.crash_after -= written
            if args.once:
                return 0
            if not written:
                time.sleep(args.poll_ms / 1000.0)
    finally:
        consumer.close()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
