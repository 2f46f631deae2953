"""Out-of-process delivery pipeline: durable spool + crash replay (S20).

``SpoolEventBus`` tees every published flush into a SQLite spool; a
``SpoolConsumer`` — run both in-process and as a real subprocess
(``python -m repro.backends.pipeline``) — drains it into a JSONL
journal. The recovery contract under test: kill the consumer at any
point (``--crash-after`` exits ``os._exit(17)`` *before* acking),
relaunch it, and the journal ends up with every spooled batch exactly
once, in spool order.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.backends import create_event_bus
from repro.backends.pipeline import SpoolConsumer, SpoolEventBus
from repro.core.subscription import Subscriber
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def move(entity_id=1, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


def recorder(subscriber_id=1):
    deliveries = []
    sub = Subscriber(
        subscriber_id=subscriber_id,
        deliver=lambda segments: deliveries.extend((d, list(u)) for d, u in segments),
    )
    return sub, deliveries


def fill_spool(path, n=10):
    bus = SpoolEventBus(str(path))
    sub, deliveries = recorder()
    for i in range(n):
        bus.publish(sub, [(("chunk", i % 3, 0), [move(i, time=float(i))])])
    bus.close()
    return deliveries


def journal_seqs(out_path):
    if not os.path.exists(out_path):
        return []
    with open(out_path, encoding="utf-8") as handle:
        return [json.loads(line)["seq"] for line in handle if line.strip()]


class TestSpoolEventBus:
    def test_inner_delivery_is_unchanged_by_the_tee(self, tmp_path):
        bus = SpoolEventBus(str(tmp_path / "spool.db"))
        sub, deliveries = recorder()
        batches = [[move(i, time=float(i))] for i in range(4)]
        for i, batch in enumerate(batches):
            bus.publish(sub, [(("d", i), batch)])
        # Direct inner bus: delivered inline, nothing pending at drain.
        assert [u for __, u in deliveries] == batches
        assert bus.drain() == 0
        assert bus.spooled == 4
        bus.close()

    def test_spool_spec_resolves_via_registry(self, tmp_path):
        bus = create_event_bus(f"spool:///{tmp_path}/spec spool.db")
        assert isinstance(bus, SpoolEventBus)
        sub, deliveries = recorder()
        bus.publish(sub, [(("d", 0), [move(1, time=1.0)])])
        assert bus.spooled == 1
        assert len(deliveries) == 1
        bus.close()

    def test_spool_survives_close_and_reopen(self, tmp_path):
        path = tmp_path / "spool.db"
        fill_spool(path, n=6)
        consumer = SpoolConsumer(str(path), str(tmp_path / "out.jsonl"))
        assert consumer.pending() == 6
        consumer.close()

    def test_close_is_idempotent(self, tmp_path):
        bus = SpoolEventBus(str(tmp_path / "spool.db"))
        bus.close()
        bus.close()


class TestSpoolConsumerInProcess:
    def test_exactly_once_in_order(self, tmp_path):
        spool, out = str(tmp_path / "s.db"), str(tmp_path / "o.jsonl")
        fill_spool(spool, n=8)
        consumer = SpoolConsumer(spool, out)
        assert consumer.process_once() == 8
        assert consumer.process_once() == 0  # acked: nothing re-emitted
        consumer.close()
        assert journal_seqs(out) == list(range(1, 9))

    def test_new_consumer_resumes_from_watermark(self, tmp_path):
        spool, out = str(tmp_path / "s.db"), str(tmp_path / "o.jsonl")
        fill_spool(spool, n=5)
        first = SpoolConsumer(spool, out)
        first.process_once()
        first.close()
        # More traffic lands after the first consumer is gone.
        bus = SpoolEventBus(spool)
        sub, __ = recorder()
        bus.publish(sub, [(("late", 0), [move(9, time=9.0)])])
        bus.close()
        second = SpoolConsumer(spool, out)
        assert second.process_once() == 1
        second.close()
        assert journal_seqs(out) == list(range(1, 7))

    def test_independent_watermarks_per_name(self, tmp_path):
        spool = str(tmp_path / "s.db")
        fill_spool(spool, n=3)
        a = SpoolConsumer(spool, str(tmp_path / "a.jsonl"), name="a")
        b = SpoolConsumer(spool, str(tmp_path / "b.jsonl"), name="b")
        assert a.process_once() == 3
        assert b.process_once() == 3
        a.close()
        b.close()


def run_consumer(spool, out, *extra):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [
            sys.executable, "-m", "repro.backends.pipeline",
            "--spool", spool, "--out", out, "--once", *extra,
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestSubprocessCrashReplay:
    def test_clean_run_journals_everything(self, tmp_path):
        spool, out = str(tmp_path / "s.db"), str(tmp_path / "o.jsonl")
        fill_spool(spool, n=10)
        proc = run_consumer(spool, out)
        assert proc.returncode == 0, proc.stderr
        assert journal_seqs(out) == list(range(1, 11))

    @pytest.mark.parametrize("crash_after", [1, 4, 9])
    def test_crash_and_relaunch_is_exactly_once(self, tmp_path, crash_after):
        """The differential: kill mid-stream (exit 17, nothing acked),
        relaunch, and the journal matches a never-crashed run."""
        spool, out = str(tmp_path / "s.db"), str(tmp_path / "o.jsonl")
        fill_spool(spool, n=10)

        crashed = run_consumer(spool, out, "--crash-after", str(crash_after))
        assert crashed.returncode == 17
        assert journal_seqs(out) == list(range(1, crash_after + 1))
        # The watermark was NOT advanced: the relaunch re-reads from 0
        # and the journal-tail scan is what must dedupe.
        resumed = run_consumer(spool, out)
        assert resumed.returncode == 0, resumed.stderr
        assert journal_seqs(out) == list(range(1, 11))

    def test_double_crash_still_exactly_once(self, tmp_path):
        spool, out = str(tmp_path / "s.db"), str(tmp_path / "o.jsonl")
        fill_spool(spool, n=10)
        assert run_consumer(spool, out, "--crash-after", "2").returncode == 17
        assert run_consumer(spool, out, "--crash-after", "5").returncode == 17
        assert journal_seqs(out) == list(range(1, 8))
        assert run_consumer(spool, out).returncode == 0
        assert journal_seqs(out) == list(range(1, 11))

    def test_journal_content_matches_in_process_deliveries(self, tmp_path):
        """The journal is a faithful record of what the inner bus
        delivered: same batch count, same update times, same order."""
        spool, out = str(tmp_path / "s.db"), str(tmp_path / "o.jsonl")
        deliveries = fill_spool(spool, n=10)
        assert run_consumer(spool, out, "--crash-after", "6").returncode == 17
        assert run_consumer(spool, out).returncode == 0
        with open(out, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        assert [r["times"] for r in records] == [
            [u.time for u in updates] for __, updates in deliveries
        ]
        assert [r["dyconit"] for r in records] == [
            repr(d) for d, __ in deliveries
        ]
