"""Differential tests for the shard-parallel tick runtime (S18).

The contract :class:`~repro.cluster.runner.ParallelShardRunner` makes is
absolute: an N-shard parallel run is **packet-for-packet identical** to
the serial N-shard :class:`~repro.cluster.facade.ShardedCluster` run of
the same seeded workload — per client, in order, byte-equal under the
wire codec. Everything else here hangs off that oracle:

* per-shard transport/metrics/dyconit counters pulled out of the workers
  at :meth:`finalize` match the serial shards';
* staleness deadlines re-armed from ``oldest_pending_time`` inside a
  worker fire exactly as often as in-process (the deadline heap never
  crosses the pipe — only its observable flushes do);
* telemetry counters folded from per-worker hubs at the barrier total
  the same as the serial single-hub run — middleware decisions
  (``trace_events_total``) included;
* checked mode audits the *merged* post-barrier state without tripping;
* the ``spawn`` start method (fresh interpreters, nothing inherited)
  produces the same bytes as ``fork``.
"""

import hashlib
import multiprocessing

import pytest

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.cluster import ParallelShardRunner, ShardedCluster
from repro.core.bounds import Bounds
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.policies import FixedBoundsPolicy
from repro.policies.zero import ZeroBoundsPolicy
from repro.server.config import ServerConfig
from repro.sim.simulator import Simulation
from repro.telemetry.hub import Telemetry

SEED = 77
DURATION_MS = 8_000.0

#: Telemetry counter families that must total identically across the
#: serial hub and the folded per-worker hubs. ``sim_*`` is deliberately
#: absent: the parallel parent schedules (and cancels) its own tick
#: events, so the simulator's dispatch count legitimately differs.
FOLDED_COUNTER_PREFIXES = (
    "server_",
    "link_",
    "dyconit_",
    "cluster_",
    "invariant_",
)


def make_spec():
    return WorkloadSpec(
        bots=8,
        seed=SEED,
        movement="gathering",
        behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
        arrival_stagger_ms=40.0,
    )


def make_bounded_policy():
    """Module-level (spawn-picklable) factory with a tight staleness
    bound, so the deadline heap does real work inside the workers."""
    return FixedBoundsPolicy(bounds=Bounds(numerical=10.0, staleness_ms=500.0))


def tap(server):
    captures: dict[str, list] = {}
    original_connect = server.connect

    def tapping_connect(name, handler, **kwargs):
        log = captures.setdefault(name, [])

        def tapped(delivered):
            log.append(delivered.packet)
            handler(delivered)

        return original_connect(name, tapped, **kwargs)

    server.connect = tapping_connect
    return captures


def run_cluster(
    parallel,
    shards=2,
    policy_factory=ZeroBoundsPolicy,
    duration_ms=DURATION_MS,
    telemetry=None,
    audit_every_n_ticks=0,
    mp_context=None,
):
    sim = Simulation()
    config = ServerConfig(
        seed=SEED,
        synchronous_delivery=True,
        mob_count=3,
        audit_every_n_ticks=audit_every_n_ticks,
    )
    if parallel:
        cluster = ParallelShardRunner(
            sim,
            shards=shards,
            strip_width=4,
            config=config,
            policy_factory=policy_factory,
            telemetry=telemetry,
            mp_context=mp_context,
        )
    else:
        cluster = ShardedCluster(
            sim,
            shards=shards,
            strip_width=4,
            config=config,
            policy_factory=policy_factory,
            telemetry=telemetry,
        )
    cluster.start()
    workload = Workload(sim, cluster, make_spec())
    captures = tap(cluster)
    workload.start()
    sim.run_until(duration_ms)
    if parallel:
        cluster.finalize()
    return captures, cluster


def digest(captures) -> str:
    h = hashlib.sha256()
    for name in sorted(captures):
        h.update(name.encode())
        for packet in captures[name]:
            h.update(repr(packet).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def serial_run():
    return run_cluster(parallel=False)


@pytest.fixture(scope="module")
def parallel_run():
    return run_cluster(parallel=True)


def test_parallel_two_shard_run_is_packet_identical_to_serial(
    serial_run, parallel_run
):
    serial_caps, serial = serial_run
    par_caps, par = parallel_run
    assert set(serial_caps) == set(par_caps)
    for name in sorted(serial_caps):
        assert serial_caps[name] == par_caps[name], (
            f"packet stream diverged for {name}"
        )
    # The run must actually exercise the seams: handoffs, bus traffic.
    assert serial.handoffs > 0
    assert serial.handoffs == par.handoffs
    assert serial.bus.total_bytes == par.bus.total_bytes
    assert serial.bus.total_messages == par.bus.total_messages
    assert serial.bus.messages_by_kind == par.bus.messages_by_kind


def test_parallel_per_shard_state_matches_serial_after_finalize(
    serial_run, parallel_run
):
    __, serial = serial_run
    __, par = parallel_run
    for s, p in zip(serial.shards, par.shards):
        assert s.transport.total_bytes() == p.transport.total_bytes()
        assert s.transport.total_packets() == p.transport.total_packets()
        assert s.transport.bytes_by_kind() == p.transport.bytes_by_kind()
        assert s.tick_count == p.tick_count
        assert sorted(s.sessions) == sorted(p.sessions)
        assert s.ghost_ids == p.ghost_ids
        assert s.world.loaded_chunk_count == p.world.loaded_chunk_count
        serial_ticks = s.metrics.series("tick_duration_ms")
        mirror_ticks = p.metrics.series("tick_duration_ms")
        assert list(serial_ticks.times) == list(mirror_ticks.times)
        assert list(serial_ticks.values) == list(mirror_ticks.values)


def test_parallel_world_mirror_matches_serial_entities(serial_run, parallel_run):
    __, serial = serial_run
    __, par = parallel_run
    for s, p in zip(serial.shards, par.shards):
        assert s.world.entity_count == p.world.entity_count
        for entity in s.world.entities():
            mirror = p.world.get_entity(entity.entity_id)
            assert mirror is not None
            assert mirror.position == entity.position
            assert mirror.kind == entity.kind


def test_deadline_rearm_from_oldest_pending_survives_worker_round_trip():
    """Staleness deadlines are a heap keyed on ``oldest_pending_time``
    living inside each worker; after every drain/refill cycle — and
    after every cross-shard batch a pump ships in — the heap must
    re-arm from the queue's new oldest entry. If re-arming broke in the
    worker, staleness flushes would stall and the counts (and packet
    streams) would diverge from serial."""
    serial_caps, serial = run_cluster(
        parallel=False, policy_factory=make_bounded_policy
    )
    par_caps, par = run_cluster(parallel=True, policy_factory=make_bounded_policy)
    assert digest(serial_caps) == digest(par_caps)
    for s, p in zip(serial.shards, par.shards):
        assert s.dyconits.stats.flushes_staleness == p.dyconits.stats.flushes_staleness
        assert s.dyconits.stats.bound_checks == p.dyconits.stats.bound_checks
        assert s.dyconits.stats.commits == p.dyconits.stats.commits
    # Vacuity guard: the bounded policy really does flush on staleness.
    assert sum(s.dyconits.stats.flushes_staleness for s in serial.shards) > 0


def test_worker_telemetry_folds_to_serial_counter_totals():
    """Workers run fresh per-process hubs (never the parent's forked
    copy); finalize folds them back. Counter totals must equal the
    serial run's single shared hub, family by family."""

    def totals(hub):
        rows = {}
        for (name, labels), counter in hub.counters().items():
            if name.startswith(FOLDED_COUNTER_PREFIXES):
                rows[(name, labels)] = counter.value
        return rows

    serial_hub = Telemetry(enabled=True)
    par_hub = Telemetry(enabled=True)
    run_cluster(parallel=False, telemetry=serial_hub)
    run_cluster(parallel=True, telemetry=par_hub)
    serial_totals = totals(serial_hub)
    par_totals = totals(par_hub)
    assert serial_totals == par_totals
    # Vacuity guards: the comparison covers worker-side families (ticks,
    # packets, dyconit commits) and the parent-side pump counters.
    assert any(name == "server_ticks_total" for name, __ in serial_totals)
    assert any(name == "link_packets_sent_total" for name, __ in serial_totals)
    assert any(name == "cluster_pumps_total" for name, __ in serial_totals)
    # Both runtimes publish the pump-convergence gauge at every barrier.
    for hub in (serial_hub, par_hub):
        assert any(name == "bus_pump_rounds" for name, __ in hub.gauges())


def test_parallel_decision_counts_match_serial():
    """Each shard's DyconitSystem logs its decisions to its own hub, so a
    parallel experiment reports the serial run's ``trace_events_total``
    per kind once finalize folds the worker hubs."""

    def decision_counts(parallel_ticks):
        telemetry = Telemetry(enabled=True)
        config = ExperimentConfig(
            name="decisions", policy="adaptive", bots=8, duration_ms=4_000.0,
            warmup_ms=1_000.0, seed=11, shards=2, parallel_ticks=parallel_ticks,
        )
        run_experiment(config, telemetry=telemetry)
        return {
            labels: counter.value
            for (name, labels), counter in telemetry.counters().items()
            if name == "trace_events_total"
        }

    serial = decision_counts(False)
    assert serial[(("kind", "flush"),)] > 0 and serial[(("kind", "bounds"),)] > 0
    assert decision_counts(True) == serial


def test_audited_parallel_run_is_clean_and_identical_to_audited_serial():
    """Checked mode in the parallel runtime: per-shard structural
    invariants run inside each worker, the cross-shard pairs run in the
    parent against the merged post-barrier mirrors. A clean workload
    must audit clean — and still produce the serial bytes."""
    serial_caps, __ = run_cluster(
        parallel=False,
        policy_factory=make_bounded_policy,
        audit_every_n_ticks=50,
    )
    par_caps, par = run_cluster(
        parallel=True,
        policy_factory=make_bounded_policy,
        audit_every_n_ticks=50,
    )
    assert digest(serial_caps) == digest(par_caps)
    # And an explicit end-of-run barrier audit on the final state.
    par2_caps, par2 = run_cluster(
        parallel=True, policy_factory=make_bounded_policy
    )
    assert digest(par2_caps) == digest(par_caps)
    assert par.handoffs == par2.handoffs


def test_parallel_final_audit_at_the_barrier():
    sim = Simulation()
    cluster = ParallelShardRunner(
        sim,
        shards=2,
        strip_width=4,
        config=ServerConfig(seed=SEED, synchronous_delivery=True, mob_count=3),
        policy_factory=ZeroBoundsPolicy,
    )
    cluster.start()
    workload = Workload(sim, cluster, make_spec())
    workload.start()
    sim.run_until(4_000.0)
    try:
        cluster.audit_now()  # raises InvariantViolationError on any hit
    finally:
        cluster.finalize()


def test_spawn_context_produces_the_same_bytes():
    """``spawn`` workers inherit nothing from the parent (fresh
    interpreter, re-imported modules); byte-identity across start
    methods pins that all worker state really travels in the spec."""
    fork_caps, __ = run_cluster(parallel=True, duration_ms=4_000.0)
    spawn_caps, __ = run_cluster(
        parallel=True, duration_ms=4_000.0, mp_context="spawn"
    )
    serial_caps, __ = run_cluster(parallel=False, duration_ms=4_000.0)
    assert digest(spawn_caps) == digest(fork_caps) == digest(serial_caps)


def test_parallel_runner_rejects_scheduled_delivery():
    with pytest.raises(ValueError, match="synchronous_delivery"):
        ParallelShardRunner(
            Simulation(),
            shards=2,
            config=ServerConfig(seed=1, synchronous_delivery=False),
            policy_factory=ZeroBoundsPolicy,
        )


def test_parallel_runner_requires_a_policy():
    with pytest.raises(ValueError, match="policy_factory"):
        ParallelShardRunner(Simulation(), shards=2)


def test_finalize_is_idempotent(parallel_run):
    __, par = parallel_run
    par.finalize()
    par.finalize()
    assert par.shards[0].transport.total_packets() > 0
    # Closing a finalized runner (twice) is safe and leaves no worker.
    par.close()
    par.close()
    workers = {handle._process for handle in par.shards}
    assert not workers & set(multiprocessing.active_children())


def test_close_shuts_the_workers_down():
    """``close()`` — here by leaving the ``with`` block, before any
    ``finalize()`` — reaps every worker; closing again is a no-op."""
    sim = Simulation()
    with ParallelShardRunner(
        sim,
        shards=2,
        strip_width=4,
        config=ServerConfig(seed=SEED, synchronous_delivery=True, mob_count=3),
        policy_factory=ZeroBoundsPolicy,
    ) as runner:
        runner.start()
        Workload(sim, runner, make_spec()).start()
        sim.run_until(1_000.0)
        workers = {handle._process for handle in runner.shards}
        assert workers <= set(multiprocessing.active_children())
    assert not workers & set(multiprocessing.active_children())
    runner.close()
