"""Backend connection lifecycle (S20).

The bug sweep along the recovery seams:

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
from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber

WIDE = Bounds(1e9, 1e9)


def move(entity_id=1, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


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
        FixedBoundsPolicy(WIDE),
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
