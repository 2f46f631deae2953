"""Backend connection lifecycle & the drain tail-loss regression (S20).

The bug sweep along the recovery seams:

* ``BufferedEventBus.drain`` used to lose the un-delivered tail of a
  batch when a subscriber raised mid-drain — the regression tests here
  pin the fix (failed batch re-queued ahead of follow-on publishes,
  counters honest, retry delivers the remainder exactly once);
* ``SQLiteStateStore`` used to leak its connection (and, in the
  driver's default implicit-transaction mode, roll back every row at
  interpreter exit) — close is now explicit, idempotent, and threaded
  through ``DyconitSystem`` / ``GameServer`` / ``ShardedCluster``
  teardown, with ownership rules: a store built from a *spec* is
  closed by the system that built it; an *instance* handed in by the
  caller stays open (the recovery path depends on reattaching to it);
* registry specs resolve awkward but legal paths: relative
  ``sqlite:///`` paths and paths with spaces.
"""

import os
import sqlite3

import pytest

from repro.backends import SQLiteStateStore, create_state_store
from repro.backends.memory import BufferedEventBus
from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.policy import Policy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber

WIDE = Bounds(1e9, 1e9)


class StaticPolicy(Policy):
    def initial_bounds(self, system, dyconit_id, subscriber):
        return WIDE


def move(entity_id=1, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


# ---------------------------------------------------------------------------
# BufferedEventBus.drain: the mid-batch exception regression
# ---------------------------------------------------------------------------


class FlakySubscriber:
    """Delivers fine except on one scheduled delivery, which raises."""

    def __init__(self, subscriber_id, fail_on):
        from repro.core.subscription import Subscriber

        self.deliveries = []
        self.fail_on = fail_on
        self.calls = 0

        def deliver(segments):
            self.calls += 1
            if self.calls == self.fail_on:
                raise RuntimeError("subscriber died mid-drain")
            self.deliveries.extend((d, list(updates)) for d, updates in segments)

        self.subscriber = Subscriber(subscriber_id=subscriber_id, deliver=deliver)


class TestBufferedDrainTailLoss:
    def publish_n(self, bus, subscriber, n):
        batches = [[move(i, time=float(i))] for i in range(n)]
        for i, batch in enumerate(batches):
            bus.publish(subscriber, [(("d", i), batch)])
        return batches

    def test_failed_batch_and_tail_survive_the_raise(self):
        bus = BufferedEventBus()
        flaky = FlakySubscriber(1, fail_on=3)
        self.publish_n(bus, flaky.subscriber, 5)
        with pytest.raises(RuntimeError, match="mid-drain"):
            bus.drain()
        # Two delivered before the raise; the failed batch plus the
        # two-batch tail are still queued — nothing was lost.
        assert len(flaky.deliveries) == 2
        assert bus.delivered == 2
        assert bus.pending == 3

    def test_retry_delivers_remainder_exactly_once_in_order(self):
        bus = BufferedEventBus()
        flaky = FlakySubscriber(1, fail_on=3)
        batches = self.publish_n(bus, flaky.subscriber, 5)
        with pytest.raises(RuntimeError):
            bus.drain()
        assert bus.drain() == 3  # the failed batch, retried, then the tail
        assert [updates for __, updates in flaky.deliveries] == batches
        assert bus.delivered == 5
        assert bus.pending == 0

    def test_requeued_tail_precedes_batches_published_during_drain(self):
        """A handler that publishes *during* the failing drain must see
        its batches sequenced after the re-queued tail."""
        from repro.core.subscription import Subscriber

        bus = BufferedEventBus()
        order = []
        calls = {"n": 0}

        def deliver(segments):
            calls["n"] += 1
            if calls["n"] == 1:
                # Handler commits back into the system mid-drain...
                bus.publish(sub, [(("late", 0), [move(99, time=99.0)])])
                # ...then dies before finishing its own delivery.
                raise RuntimeError("boom")
            order.extend(dyconit_id for dyconit_id, __ in segments)

        sub = Subscriber(subscriber_id=1, deliver=deliver)
        bus.publish(sub, [(("a", 0), [move(1, time=1.0)])])
        bus.publish(sub, [(("a", 1), [move(2, time=2.0)])])
        with pytest.raises(RuntimeError):
            bus.drain()
        bus.drain()
        # Publish order preserved: failed batch, its tail, then the
        # batch published during the failed drain.
        assert order == [("a", 0), ("a", 1), ("late", 0)]


# ---------------------------------------------------------------------------
# SQLite connection lifecycle
# ---------------------------------------------------------------------------


class TestSQLiteLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        store = SQLiteStateStore(str(tmp_path / "s.db"))
        store.close()
        store.close()  # second close must not raise

    def test_operations_after_close_raise(self, tmp_path):
        store = SQLiteStateStore(str(tmp_path / "s.db"))
        store.close()
        with pytest.raises(sqlite3.ProgrammingError):
            store.checkpoint_keys()

    def test_context_manager_closes(self, tmp_path):
        with SQLiteStateStore(str(tmp_path / "s.db")) as store:
            store.save_checkpoint("k", b"blob")
        with pytest.raises(sqlite3.ProgrammingError):
            store.load_checkpoint("k")

    def test_rows_survive_close_and_reopen(self, tmp_path):
        """The original leak also meant rows were silently rolled back
        at close (implicit-transaction mode); autocommit + explicit
        close makes the file durable."""
        path = str(tmp_path / "durable.db")
        store = SQLiteStateStore(path)
        handle = store.create_dyconit_state(("chunk", 0, 0), merging=True)
        recorder = RecordingSubscriber(1)
        state = handle.subscribe(recorder.subscriber, WIDE)
        state.enqueue(move(1, time=1.0))
        store.save_checkpoint("ck", b"snapshot-bytes")
        store.close()

        reopened = SQLiteStateStore(path)
        assert reopened.load_checkpoint("ck") == b"snapshot-bytes"
        assert reopened.checkpoint_keys() == ["ck"]
        # The pending row survived too: sequence counters resume past it.
        assert reopened.next_seq() > 1
        reopened.close()


# ---------------------------------------------------------------------------
# Registry path handling
# ---------------------------------------------------------------------------


class TestRegistryPaths:
    def test_relative_sqlite_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = create_state_store("sqlite:///relative/../rel.db")
        try:
            store.save_checkpoint("k", b"x")
        finally:
            store.close()
        assert os.path.exists(tmp_path / "rel.db")
        with SQLiteStateStore(str(tmp_path / "rel.db")) as reopened:
            assert reopened.load_checkpoint("k") == b"x"

    def test_path_with_spaces(self, tmp_path):
        path = tmp_path / "dir with spaces" / "state file.db"
        path.parent.mkdir()
        store = create_state_store(f"sqlite:///{path}")
        try:
            assert isinstance(store, SQLiteStateStore)
            store.save_checkpoint("k", b"y")
        finally:
            store.close()
        with SQLiteStateStore(str(path)) as reopened:
            assert reopened.load_checkpoint("k") == b"y"


# ---------------------------------------------------------------------------
# Close threaded through system / server / cluster teardown
# ---------------------------------------------------------------------------


def make_system(store_spec):
    return DyconitSystem(
        StaticPolicy(),
        ChunkPartitioner(),
        time_source=lambda: 0.0,
        state_store=store_spec,
    )


class TestOwnershipAtTeardown:
    def test_system_closes_spec_built_store(self, tmp_path):
        system = make_system(f"sqlite:///{tmp_path}/spec.db")
        store = system.state_store
        system.close()
        with pytest.raises(sqlite3.ProgrammingError):
            store.checkpoint_keys()

    def test_system_leaves_instance_store_open(self, tmp_path):
        store = SQLiteStateStore(str(tmp_path / "inst.db"))
        system = make_system(store)
        system.close()
        assert store.checkpoint_keys() == []  # still usable
        store.close()

    def test_system_context_manager(self, tmp_path):
        with make_system(f"sqlite:///{tmp_path}/cm.db") as system:
            store = system.state_store
        with pytest.raises(sqlite3.ProgrammingError):
            store.checkpoint_keys()

    def test_server_close_reaches_the_store(self, tmp_path):
        from repro.policies.fixed import FixedBoundsPolicy
        from repro.server.config import ServerConfig
        from repro.server.engine import GameServer
        from repro.sim.simulator import Simulation

        sim = Simulation()
        server = GameServer(
            sim,
            config=ServerConfig(
                state_store=f"sqlite:///{tmp_path}/server.db",
                mob_count=0,
                synchronous_delivery=True,
            ),
            policy=FixedBoundsPolicy(Bounds(3.0, 120.0)),
        )
        server.start()
        sim.run_until(200.0)
        store = server.dyconits.state_store
        server.close()
        with pytest.raises(sqlite3.ProgrammingError):
            store.checkpoint_keys()

    def test_cluster_close_reaches_every_shard_store(self, tmp_path):
        from repro.cluster import ShardedCluster
        from repro.policies.fixed import FixedBoundsPolicy
        from repro.server.config import ServerConfig
        from repro.sim.simulator import Simulation

        sim = Simulation()
        cluster = ShardedCluster(
            sim,
            shards=2,
            strip_width=2,
            config=ServerConfig(mob_count=0, synchronous_delivery=True),
            policy_factory=lambda: FixedBoundsPolicy(Bounds(3.0, 120.0)),
            state_stores=[
                SQLiteStateStore(str(tmp_path / f"shard{i}.db")) for i in range(2)
            ],
        )
        cluster.start()
        sim.run_until(200.0)
        stores = [shard.dyconits.state_store for shard in cluster.shards]
        cluster.close()
        # Instance stores stay open (the recovery path reattaches to
        # them); spec-built ones would have been closed.
        for store in stores:
            assert store.checkpoint_keys() == []
            store.close()
