"""Cluster invariants I7/I8: corrupted-state unit tests + a long audited run.

The unit tests inject each corruption the catalogue describes and assert
the auditor names it; the integration test runs a 2000-tick 2-shard
gathering (border-hotspot) workload with continuous auditing enabled —
the checked-mode acceptance gate for the sharded world.
"""

import pytest

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.cluster import ParallelShardRunner, ShardedCluster
from repro.cluster.shard import ShardServer, peer_subscriber_id
from repro.core.invariants import InvariantAuditor, InvariantViolationError
from repro.policies.adaptive import AdaptiveBoundsPolicy
from repro.policies.zero import ZeroBoundsPolicy
from repro.server.config import ServerConfig
from repro.sim.simulator import Simulation
from repro.world.entity import EntityKind
from repro.world.geometry import ChunkPos, Vec3


def make_cluster(**config_overrides):
    defaults = dict(seed=11, synchronous_delivery=True, mob_count=0)
    defaults.update(config_overrides)
    sim = Simulation()
    cluster = ShardedCluster(
        sim,
        shards=2,
        strip_width=4,
        config=ServerConfig(**defaults),
        policy_factory=ZeroBoundsPolicy,
    )
    cluster.start()
    return sim, cluster


def run_settled(sim, cluster, bots=4, ms=2_000.0):
    workload = Workload(
        sim,
        cluster,
        WorkloadSpec(bots=bots, seed=11, movement="gathering"),
    )
    workload.start()
    sim.run_until(sim.now + ms)
    return workload


def names(violations):
    return {violation.invariant for violation in violations}


def test_clean_cluster_passes_all_invariants():
    sim, cluster = make_cluster(mob_count=2)
    run_settled(sim, cluster)
    assert InvariantAuditor().check_cluster(cluster) == []


def test_assert_ok_dispatches_on_cluster():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    InvariantAuditor().assert_ok(cluster)  # must not raise


def test_duplicate_authority_is_flagged():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    # The same entity id authoritative on both shards at once: promote a
    # ghost replica to authoritative, or materialize a twin.
    victim = next(iter(cluster.shards[0].world.entities()))
    shard1 = cluster.shards[1]
    if shard1.world.get_entity(victim.entity_id) is not None:
        shard1.ghost_ids.discard(victim.entity_id)
    else:
        shard1.world.spawn_entity(
            victim.kind, victim.position, name=victim.name, entity_id=victim.entity_id
        )
    violations = InvariantAuditor().check_cluster(cluster)
    assert "I7.unique-ownership" in names(violations)
    with pytest.raises(InvariantViolationError):
        InvariantAuditor().assert_ok(cluster)


def test_ghost_without_entity_is_flagged():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    cluster.shards[1].ghost_ids.add(424242)
    violations = InvariantAuditor().check_cluster(cluster)
    assert "I7.ghost-backed" in names(violations)


def test_ghost_of_nobody_is_flagged():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    shard1 = cluster.shards[1]
    orphan = shard1.world.spawn_entity(
        EntityKind.ZOMBIE, shard1.world.surface_position(-8.0, 8.0), entity_id=424243
    )
    shard1.ghost_ids.add(orphan.entity_id)
    violations = InvariantAuditor().check_cluster(cluster)
    assert "I7.ghost-of-nobody" in names(violations)


def test_one_sided_interest_is_flagged():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    # Subscriber wants a chunk the publisher never registered.
    chunk = ChunkPos(40, 40)
    cluster.shards[1].remote_interest.setdefault(0, {})[chunk] = None
    violations = InvariantAuditor().check_cluster(cluster)
    mirror = [v for v in violations if v.invariant == "I8.mirror"]
    assert mirror and "never registered" in mirror[0].message


def test_dangling_registration_is_flagged():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    # Publisher still registers a chunk the subscriber dropped.
    chunk = ChunkPos(41, 41)
    cluster.shards[0].peer_registry.setdefault(1, {})[chunk] = None
    violations = InvariantAuditor().check_cluster(cluster)
    mirror = [v for v in violations if v.invariant == "I8.mirror"]
    assert mirror and "dropped" in mirror[0].message


def test_registration_without_dyconit_backing_is_flagged():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    # Both sides agree on the chunk, but the publisher's dyconit system
    # has no peer subscription feeding it.
    chunk = ChunkPos(42, 0)
    cluster.shards[1].remote_interest.setdefault(0, {})[chunk] = None
    cluster.shards[0].peer_registry.setdefault(1, {})[chunk] = None
    violations = InvariantAuditor().check_cluster(cluster)
    assert "I8.dyconit-backing" in names(violations)


def test_in_flight_control_messages_excuse_the_mirror():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    # The same one-sided interest as above, but with a matching
    # PeerSubscribe still on the wire: not a violation until the barrier.
    from repro.cluster.messages import PeerSubscribe
    from repro.core.bounds import Bounds

    chunk = ChunkPos(40, 40)
    cluster.shards[1].remote_interest.setdefault(0, {})[chunk] = None
    cluster.bus.post(1, 0, PeerSubscribe(chunk=chunk, bounds=Bounds.ZERO))
    violations = InvariantAuditor().check_cluster(cluster)
    assert "I8.mirror" not in names(violations)
    # After the pump the mirror is real and the excusal is gone.
    sim.run_until(sim.now + 100.0)
    assert "I8.mirror" not in names(InvariantAuditor().check_cluster(cluster))


def test_shard_local_violations_are_prefixed():
    sim, cluster = make_cluster()
    run_settled(sim, cluster)
    # Corrupt a *single-server* invariant inside shard 1: a session
    # viewing a chunk with no subscriber entry has I2 broken.
    shard = cluster.shards[1]
    session = next(iter(shard.sessions.values()), None)
    if session is None:
        shard = cluster.shards[0]
        session = next(iter(shard.sessions.values()))
    session.view_chunks.add(ChunkPos(60, 60))
    violations = InvariantAuditor().check_cluster(cluster)
    assert violations, "expected the per-shard catalogue to fire"
    assert any(v.subject.startswith(f"shard {shard.shard_id}:") for v in violations)


def test_parallel_audit_names_a_seeded_defect_like_the_serial_audit(monkeypatch):
    """A publisher that registers a subscribed chunk but never subscribes
    the peer to its dyconit breaks I8's dyconit backing. The parallel
    audit (each worker's shard report, the cross-shard pairs in the
    parent) must raise the serial audit's violation list exactly. Forked
    workers inherit the patched class; only the final audit runs."""
    from repro.server import engine

    monkeypatch.setattr(engine, "AUDIT_DEFAULT_EVERY_N_TICKS", 0)

    def register_only(self, src, message):
        self.ensure_peer(src)
        self.peer_registry[src][message.chunk] = None

    monkeypatch.setattr(ShardServer, "_handle_peer_subscribe", register_only)

    def audited(cls, **options):
        sim = Simulation()
        cluster = cls(
            sim,
            shards=2,
            strip_width=4,
            config=ServerConfig(seed=11, synchronous_delivery=True, mob_count=0),
            policy_factory=ZeroBoundsPolicy,
            **options,
        )
        with cluster:
            cluster.start()
            run_settled(sim, cluster)
            with pytest.raises(InvariantViolationError) as excinfo:
                cluster.audit_now()
        return excinfo.value.violations

    serial = audited(ShardedCluster)
    assert names(serial) == {"I8.dyconit-backing"}
    assert audited(ParallelShardRunner, mp_context="fork") == serial


def test_peer_subscriber_ids_never_collide_with_clients():
    assert peer_subscriber_id(0) == -1
    assert peer_subscriber_id(3) == -4
    assert all(peer_subscriber_id(shard) < 0 for shard in range(8))


def test_two_thousand_tick_audited_gathering_run_stays_clean():
    """The S16 checked-mode gate: 2k ticks, 2 shards, the border-hotspot
    workload, invariants I1-I8 audited every 10 pumps. Any violation
    raises InvariantViolationError from inside the run."""
    sim = Simulation()
    cluster = ShardedCluster(
        sim,
        shards=2,
        strip_width=4,
        config=ServerConfig(
            seed=5, synchronous_delivery=True, mob_count=3, audit_every_n_ticks=10
        ),
        policy_factory=AdaptiveBoundsPolicy,
    )
    cluster.start()
    workload = Workload(
        sim,
        cluster,
        WorkloadSpec(
            bots=6,
            seed=5,
            movement="gathering",
            behavior=BehaviorMix(build=0.05, dig=0.02, chat=0.01),
        ),
    )
    workload.start()
    sim.run_until(100_000.0)  # 2000 ticks at 50 ms
    assert cluster.pump_count == 2000
    # The run must have actually exercised federation, not idled.
    assert cluster.handoffs > 0
    assert cluster.bus.messages_by_kind.get("PeerUpdates", 0) > 0
    # And one final audit at the end for good measure.
    assert InvariantAuditor().check_cluster(cluster) == []
