"""Durable restart & crash recovery (S20): the kill-at-tick-K contract.

The tentpole test: a run that is checkpointed at the tick-K barrier,
SIGKILL-simulated a few ticks later (objects abandoned, never stopped
or closed), and restored from the surviving file-backed store must be
**packet-identical from the resume point** to a run that was never
killed — per client, with the invariant auditor enabled throughout.

Structure:

* parametrized kill ticks on the sqlite file store (the anchor cases);
* a hypothesis-sampled kill-point schedule over the same differential;
* checkpoint capture is observably read-only (checkpointed run ==
  un-checkpointed run, byte for byte);
* the same contract for a 2-shard cluster with per-shard sqlite
  stores — in-flight bus messages are part of the snapshot;
* error surfaces (missing key, server/cluster blob confusion, a blob
  of another checkpoint format).

Action traffic is scripted at off-barrier times (``step*25 + 13``) so
"actions at t <= T_K are inside the snapshot, actions after are
re-driven by the resumed client" is unambiguous.
"""

import dataclasses
import os
import pickle
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import InMemoryStateStore, SQLiteStateStore
from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit
from repro.gateway.control import ControlPlane
from repro.net.protocol import PlayerActionPacket
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.snapshot import (
    CHECKPOINT_FORMAT,
    capture_server,
    load_snapshot,
    restore_cluster,
    restore_server,
    restore_server_from_store,
)
from repro.sim.simulator import Simulation
from repro.world.block import BlockType
from repro.world.chunk import WORLD_HEIGHT
from repro.world.geometry import BlockPos, ChunkPos, Vec3

TICK = 50.0
TOTAL_TICKS = 30
N_CLIENTS = 3


def make_policy():
    # Tight enough that merges, flushes and staleness deadlines all fire
    # during the run — recovery must restore mid-flight queue state, not
    # an empty system.
    return FixedBoundsPolicy(Bounds(numerical=3.0, staleness_ms=120.0))


def make_handler(log):
    return lambda delivered: log.append(repr(delivered.packet))


def _find_session(target, client_id):
    if hasattr(target, "shards"):
        shard_id = target._shard_by_client.get(client_id)
        if shard_id is None:
            return None, None
        shard = target.shards[shard_id]
        return shard, shard.sessions.get(client_id)
    return target, target.sessions.get(client_id)


def drive_tape(target, sim, client_ids, *, from_ms):
    """Schedule deterministic off-barrier move actions for every client.

    Only actions strictly after *from_ms* are scheduled: everything at or
    before the capture barrier is already inside the snapshot's inbound
    queue and must not be double-submitted by a resumed client.
    """
    for step in range(1, TOTAL_TICKS * 2):
        t = step * (TICK / 2.0) + 13.0  # off-barrier on purpose
        if t <= from_ms:
            continue
        for cid in client_ids:

            def submit(cid=cid, step=step):
                server, session = _find_session(target, cid)
                if session is None:
                    return
                entity = server.world.get_entity(session.entity_id)
                if entity is None:
                    return
                pos = Vec3(
                    entity.position.x + 0.4,
                    entity.position.y,
                    entity.position.z + (0.2 if step % 2 else -0.2),
                )
                target.submit_action(
                    cid, PlayerActionPacket(action="move", position=pos)
                )

            sim.schedule_at(t, submit)


def run_server(store, *, kill_tick=None, checkpoint_at=None, key="ck"):
    """Run the scripted scenario; returns (server, sim, logs-by-client)."""
    sim = Simulation()
    config = ServerConfig(
        state_store=store,
        mob_count=4,
        synchronous_delivery=True,
        audit_every_n_ticks=7,
        seed=3,
    )
    server = GameServer(sim, config=config, policy=make_policy())
    control = ControlPlane()
    server.control_plane = control
    logs = {}
    for i in range(N_CLIENTS):
        cid = i + 1
        logs[cid] = []
        server.connect(
            f"bot-{i}",
            make_handler(logs[cid]),
            position=server.world.surface_position(4.0 + 9 * i, 6.0),
        )
    server.start()
    drive_tape(server, sim, list(logs), from_ms=-1.0)
    if checkpoint_at is not None:
        sim.schedule_at(
            checkpoint_at * TICK - 1.0,
            lambda: control.submit({"kind": "checkpoint", "key": key}),
        )
    if kill_tick is None:
        sim.run_until(TOTAL_TICKS * TICK + TICK - 1.0)
    else:
        # Run a few ticks PAST the checkpoint: the killed process keeps
        # writing store rows after the snapshot, and recovery must
        # reset that garbage away.
        sim.run_until((kill_tick + 4) * TICK)
    return server, sim, logs


def resume_from(path, *, key="ck"):
    """SIGKILL semantics: reattach a fresh store handle to the file."""
    store = SQLiteStateStore(path)
    logs = {cid: [] for cid in range(1, N_CLIENTS + 1)}
    handlers = {cid: make_handler(log) for cid, log in logs.items()}
    server = restore_server_from_store(store, key, handlers=handlers)
    sim = server.sim
    drive_tape(server, sim, list(logs), from_ms=sim.now)
    sim.run_until(TOTAL_TICKS * TICK + TICK - 1.0)
    return server, logs


def assert_tails_match(baseline_logs, resumed_logs):
    for cid, baseline in baseline_logs.items():
        resumed = resumed_logs[cid]
        assert resumed, f"client {cid} received nothing after resume"
        tail = baseline[-len(resumed):]
        assert resumed == tail, (
            f"client {cid} diverged: resumed {len(resumed)} packets do not "
            f"match the baseline tail (first diff at index "
            f"{next(i for i, (a, b) in enumerate(zip(tail, resumed)) if a != b)})"
        )


def kill_and_resume_differential(tmp_path, kill_tick):
    baseline_store = SQLiteStateStore(os.path.join(tmp_path, "baseline.db"))
    server_a, _, baseline_logs = run_server(
        baseline_store, checkpoint_at=kill_tick
    )
    assert server_a.tick_count == TOTAL_TICKS

    path = os.path.join(tmp_path, "killed.db")
    server_b, _, _ = run_server(
        SQLiteStateStore(path), kill_tick=kill_tick, checkpoint_at=kill_tick
    )
    assert server_b.tick_count == kill_tick + 4
    del server_b  # abandoned, never stopped/closed: SIGKILL semantics

    server_c, resumed_logs = resume_from(path)
    assert server_c.tick_count == TOTAL_TICKS
    assert_tails_match(baseline_logs, resumed_logs)
    server_a.close()
    server_c.close()


# ---------------------------------------------------------------------------
# Single-server kill/resume
# ---------------------------------------------------------------------------


class TestServerKillResume:
    @pytest.mark.parametrize("kill_tick", [5, 14, 23])
    def test_kill_and_resume_is_packet_identical(self, tmp_path, kill_tick):
        kill_and_resume_differential(str(tmp_path), kill_tick)

    def test_restored_server_resumes_from_checkpoint_tick(self, tmp_path):
        path = os.path.join(str(tmp_path), "run.db")
        server, _, _ = run_server(
            SQLiteStateStore(path), kill_tick=10, checkpoint_at=10
        )
        del server
        store = SQLiteStateStore(path)
        handlers = {
            cid: make_handler([]) for cid in range(1, N_CLIENTS + 1)
        }
        restored = restore_server_from_store(store, "ck", handlers=handlers)
        # The checkpoint captured at the top of tick 10, before any phase
        # ran; the restored server re-runs tick 10 itself.
        assert restored.tick_count == 9
        assert restored.sim.now == 10 * TICK
        restored.sim.run_until(restored.sim.now)
        assert restored.tick_count == 10
        restored.close()


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(kill_tick=st.integers(min_value=3, max_value=TOTAL_TICKS - 4))
def test_kill_point_schedule_property(tmp_path_factory, kill_tick):
    """Hypothesis-sampled kill points: the contract holds at ANY barrier."""
    tmp = tmp_path_factory.mktemp(f"kill{kill_tick}")
    kill_and_resume_differential(str(tmp), kill_tick)


# ---------------------------------------------------------------------------
# Checkpointing must not perturb the run
# ---------------------------------------------------------------------------


class TestCheckpointIsReadOnly:
    def test_checkpointed_run_matches_unobserved_run(self, tmp_path):
        plain_store = SQLiteStateStore(os.path.join(str(tmp_path), "plain.db"))
        _, _, plain_logs = run_server(plain_store)
        ck_store = SQLiteStateStore(os.path.join(str(tmp_path), "ck.db"))
        _, _, ck_logs = run_server(ck_store, checkpoint_at=11)
        assert ck_logs == plain_logs
        assert ck_store.load_checkpoint("ck") is not None
        assert plain_store.load_checkpoint("ck") is None

    def test_checkpoint_survives_reset(self, tmp_path):
        store = SQLiteStateStore(os.path.join(str(tmp_path), "run.db"))
        run_server(store, checkpoint_at=8)
        blob = store.load_checkpoint("ck")
        store.reset()
        assert store.load_checkpoint("ck") == blob


class TestCheckpointCarriesEdits:
    def test_modified_chunks_travel_as_edits_and_restore_cell_for_cell(self):
        """A modified chunk checkpoints as its edits over the generated
        base — not a dense array — and the restored world reads the same
        block in every cell of it."""
        server = GameServer(Simulation(), config=ServerConfig(seed=3), policy=make_policy())
        world = server.world
        modified = [ChunkPos(cx, cz) for cx in (-2, 0, 3) for cz in (-1, 2)]
        for n, pos in enumerate(modified):
            origin = pos.block_origin()
            for i in range(24):
                x, z = origin.x + (i * 5) % 16, origin.z + (i * 3 + n) % 16
                top = world.surface_height(x, z)
                world.set_block(BlockPos(x, top, z), BlockType.AIR)
                world.set_block(BlockPos(x, top + 3, z), BlockType.BRICK)
            world.set_block(BlockPos(origin.x, 1, origin.z), BlockType.GLASS)
        snap = capture_server(server)
        chunks = snap.world.chunks
        assert {pos for pos, _, _ in chunks} == set(modified)
        payload = len(pickle.dumps(chunks, protocol=4)) / len(chunks)
        assert payload < 4096, f"{payload:.0f} bytes of chunk payload per modified chunk"

        restored = restore_server(snap, state_store="memory", handlers={}, start=False)
        for pos in modified:
            before, after = world.get_chunk(pos), restored.world.get_chunk(pos)
            assert after.modified_count == before.modified_count
            assert after.non_air_count == before.non_air_count
            origin = pos.block_origin()
            cells = [
                BlockPos(x, y, z)
                for x in range(origin.x, origin.x + 16)
                for y in range(WORLD_HEIGHT)
                for z in range(origin.z, origin.z + 16)
            ]
            assert [after.get_block(c) for c in cells] == [before.get_block(c) for c in cells]
            assert [after.surface_height(c.x, c.z) for c in cells[::WORLD_HEIGHT]] == [
                before.surface_height(c.x, c.z) for c in cells[::WORLD_HEIGHT]
            ]
        server.close()
        restored.close()


# ---------------------------------------------------------------------------
# Error surfaces
# ---------------------------------------------------------------------------


class TestRecoveryErrors:
    def test_missing_checkpoint_raises_key_error(self, tmp_path):
        store = SQLiteStateStore(os.path.join(str(tmp_path), "empty.db"))
        with pytest.raises(KeyError, match="no checkpoint"):
            load_snapshot(store, "nope")

    def test_cluster_blob_rejected_by_server_restore(self, tmp_path):
        stores = cluster_stores(str(tmp_path))
        cluster, _, _ = run_cluster(stores, checkpoint_at=6, kill_pump=6)
        del cluster
        store = SQLiteStateStore(stores[0])
        with pytest.raises(TypeError, match="ClusterSnapshot"):
            restore_server_from_store(store, "ck", handlers={})

    @pytest.mark.parametrize(
        "tag",
        # /3 pickled geometry as slotted dataclasses; /2 carried a dense
        # block array per modified chunk; /1 also SystemSnapshot's
        # deadline heap, seq and armed map.
        [
            None,
            "repro-checkpoint/0",
            "repro-checkpoint/2",
            "repro-checkpoint/1",
            "repro-checkpoint/3",
            "repro-checkpoint/6",
        ],
        ids=[
            "untagged", "wrong-tag", "previous-tag", "older-tag", "dataclass-geometry-tag",
            "per-client-link-tag",
        ],
    )
    def test_blob_of_another_format_is_refused(self, tmp_path, tag):
        """A slotted ``ServerConfig`` un-pickles positionally, so a blob
        written under another field list would restore silently wrong;
        the loaders refuse it by name instead."""
        server_store = SQLiteStateStore(os.path.join(str(tmp_path), "run.db"))
        run_server(server_store, checkpoint_at=8)
        paths = cluster_stores(str(tmp_path))
        run_cluster(paths, checkpoint_at=6, kill_pump=6)
        cluster_store = SQLiteStateStore(paths[0])
        for store, kind in (
            (server_store, "ServerSnapshot"),
            (cluster_store, "ClusterSnapshot"),
        ):
            snap = load_snapshot(store, "ck")
            assert type(snap).__name__ == kind
            foreign = snap if tag is None else (tag, snap)
            store.save_checkpoint("foreign", pickle.dumps(foreign, protocol=4))
            found = f"an untagged {kind}" if tag is None else repr(tag)
            expected = (
                f"checkpoint 'foreign' in store 'sqlite' has format {found}, "
                f"expected {CHECKPOINT_FORMAT!r}"
            )
            with pytest.raises(ValueError, match=re.escape(expected)):
                load_snapshot(store, "foreign")
        with pytest.raises(ValueError, match=re.escape(CHECKPOINT_FORMAT)):
            restore_server_from_store(server_store, "foreign", handlers={})

    def test_blob_that_no_longer_unpickles_is_refused(self, monkeypatch):
        """A ``/3`` blob holds geometry pickled as slotted dataclasses
        (class plus field state). Geometry is a tuple now, so loading it
        dies inside ``pickle.loads``; the loader names key and store
        instead of leaking the raw ``TypeError``."""
        import repro.world.geometry as geometry

        @dataclasses.dataclass(frozen=True, slots=True)
        class OldVec3:
            x: float
            y: float
            z: float

        OldVec3.__module__, OldVec3.__qualname__ = geometry.__name__, "Vec3"
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "Vec3", OldVec3)
            blob = pickle.dumps(
                ("repro-checkpoint/3", {"position": OldVec3(1.0, 2.0, 3.0)}),
                protocol=4,
            )
        store = InMemoryStateStore()
        store.save_checkpoint("old", blob)
        expected = "checkpoint 'old' in store 'memory' does not unpickle (TypeError: "
        with pytest.raises(ValueError, match=re.escape(expected)) as info:
            load_snapshot(store, "old")
        assert CHECKPOINT_FORMAT in str(info.value)
        assert isinstance(info.value.__cause__, TypeError)


# ---------------------------------------------------------------------------
# Cluster kill/resume: per-shard stores, in-flight bus traffic included
# ---------------------------------------------------------------------------

CLUSTER_SHARDS = 2
CLUSTER_CLIENTS = 4


def cluster_stores(tmp_path):
    return [
        os.path.join(tmp_path, f"shard{i}.db") for i in range(CLUSTER_SHARDS)
    ]


def run_cluster(store_paths, *, kill_pump=None, checkpoint_at=None, key="ck"):
    from repro.cluster import ShardedCluster

    sim = Simulation()
    config = ServerConfig(
        mob_count=2,
        synchronous_delivery=True,
        audit_every_n_ticks=7,
        seed=3,
    )
    cluster = ShardedCluster(
        sim,
        shards=CLUSTER_SHARDS,
        strip_width=2,
        config=config,
        policy_factory=make_policy,
        state_stores=[
            SQLiteStateStore(p) if isinstance(p, str) else p for p in store_paths
        ],
    )
    control = ControlPlane()
    cluster.control_plane = control
    logs = {}
    for i in range(CLUSTER_CLIENTS):
        cid = i + 1
        logs[cid] = []
        # Spread clients across both strips so cross-shard interest (and
        # therefore bus traffic) exists at every barrier.
        x = 8.0 + 24.0 * i
        cluster.connect(f"bot-{i}", make_handler(logs[cid]), position=Vec3(x, 8.0, 6.0))
    cluster.start()
    drive_tape(cluster, sim, list(logs), from_ms=-1.0)
    if checkpoint_at is not None:
        sim.schedule_at(
            checkpoint_at * TICK - 1.0,
            lambda: control.submit({"kind": "checkpoint", "key": key}),
        )
    if kill_pump is None:
        sim.run_until(TOTAL_TICKS * TICK + TICK - 1.0)
    else:
        sim.run_until((kill_pump + 4) * TICK)
    return cluster, sim, logs


@pytest.mark.parametrize("kill_pump", [6, 15])
def test_cluster_kill_and_resume_is_packet_identical(tmp_path, kill_pump):
    tmp = str(tmp_path)
    baseline_paths = [
        os.path.join(tmp, f"base{i}.db") for i in range(CLUSTER_SHARDS)
    ]
    cluster_a, _, baseline_logs = run_cluster(
        baseline_paths, checkpoint_at=kill_pump
    )
    assert cluster_a.pump_count == TOTAL_TICKS

    killed_paths = cluster_stores(tmp)
    cluster_b, _, _ = run_cluster(
        killed_paths, kill_pump=kill_pump, checkpoint_at=kill_pump
    )
    assert cluster_b.pump_count == kill_pump + 4
    del cluster_b  # abandoned: SIGKILL semantics

    fresh_stores = [SQLiteStateStore(p) for p in killed_paths]
    snap = load_snapshot(fresh_stores[0], "ck")
    logs = {cid: [] for cid in range(1, CLUSTER_CLIENTS + 1)}
    handlers = {cid: make_handler(log) for cid, log in logs.items()}
    cluster_c = restore_cluster(snap, state_stores=fresh_stores, handlers=handlers)
    sim_c = cluster_c.sim
    assert cluster_c.pump_count == kill_pump - 1
    drive_tape(cluster_c, sim_c, list(logs), from_ms=sim_c.now)
    sim_c.run_until(TOTAL_TICKS * TICK + TICK - 1.0)
    assert cluster_c.pump_count == TOTAL_TICKS
    assert_tails_match(baseline_logs, logs)
    cluster_a.close()
    cluster_c.close()


def test_restored_memory_cluster_is_columnar_again():
    """Restore writes slots: no handle of a resumed memory-store cluster
    drops to per-object states (at the parent every restored one did)."""
    stores = [InMemoryStateStore() for _ in range(CLUSTER_SHARDS)]
    cluster, _, logs = run_cluster(stores, kill_pump=6, checkpoint_at=6)
    restored = restore_cluster(
        load_snapshot(stores[0], "ck"),
        state_stores=[InMemoryStateStore() for _ in range(CLUSTER_SHARDS)],
        handlers={cid: make_handler([]) for cid in logs},
    )
    handles = [h for shard in restored.shards for h in shard.dyconits.dyconits()]
    assert len(handles) > CLUSTER_SHARDS
    assert all(isinstance(handle, Dyconit) for handle in handles)
    assert any(s.has_pending for h in handles for s in h.subscription_states())
    restored.sim.run_until(20 * TICK)  # audited every 7th pump
    restored.close()
    cluster.close()
