"""Gateway retune safety (S19).

Three layers of proof that the live control plane cannot corrupt a run:

1. **Property (hypothesis):** random bounds/policy retunes interleaved
   with ticks on a live server running checked mode at every tick
   (``audit_every_n_ticks=1``) never violate auditor invariants — a
   violation raises :class:`InvariantViolationError` out of the tick
   and fails the test. Every valid op must be applied with status
   ``ok`` at a tick *after* its submission (the tick-barrier contract).
2. **Differential:** attaching an idle gateway (telemetry reads only)
   leaves the packet streams byte-identical to an unobserved run.
3. **Validation:** malformed ops are rejected at the HTTP boundary
   (400, nothing queued), and an op that fails at apply time is
   recorded as an error instead of taking the tick loop down.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.core.invariants import InvariantAuditor
from repro.experiments.configs import make_policy
from repro.gateway import ControlPlane, GatewayCore
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.world.world import World

TICK_MS = 50.0

#: Policies safe to hot-swap onto a running server (every non-vanilla
#: experiment policy with a no-argument constructor).
SWAPPABLE_POLICIES = ("zero", "infinite", "fixed", "aoi", "distance", "adaptive")


def boot_server(seed=23, bots=3, audit_every_n_ticks=1, policy="fixed"):
    sim = Simulation()
    server = GameServer(
        sim,
        world=World(seed=seed),
        config=ServerConfig(
            seed=seed,
            synchronous_delivery=True,
            mob_count=2,
            audit_every_n_ticks=audit_every_n_ticks,
        ),
        policy=make_policy(policy),
    )
    server.start()
    Workload(
        sim,
        server,
        WorkloadSpec(
            bots=bots,
            seed=seed,
            movement="hotspot",
            behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
            arrival_stagger_ms=30.0,
        ),
    ).start()
    return sim, server


bounds_payloads = st.fixed_dictionaries(
    {
        "numerical": st.floats(min_value=0.0, max_value=50.0),
        "staleness_ms": st.floats(min_value=0.0, max_value=1_000.0),
    },
    optional={"order": st.floats(min_value=1.0, max_value=10.0)},
)

retune_ops = st.one_of(
    bounds_payloads.map(lambda b: {"bounds": b}),
    st.sampled_from(SWAPPABLE_POLICIES).map(lambda name: {"policy": name}),
)

#: (op payload, ticks to run before the next op) sequences.
retune_scripts = st.lists(
    st.tuples(retune_ops, st.integers(min_value=0, max_value=4)),
    min_size=1,
    max_size=8,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=retune_scripts)
def test_random_retunes_never_violate_invariants(script):
    """I1–I9 hold through arbitrary retune/tick interleavings.

    The server audits at every single tick, so any control-plane
    corruption of the bounds/deadline/queue structures raises out of
    ``sim.run_until`` immediately.
    """
    sim, server = boot_server()
    core = GatewayCore(server)
    sim.run_until(500.0)

    submitted = []
    for payload, ticks in script:
        status, __, body = core.handle("PUT", "/policy", json.dumps(payload))
        assert status == 202, body
        submitted.append((json.loads(body)["accepted"], server.tick_count))
        sim.run_until(sim.now + ticks * TICK_MS)
    # Let every queued op land, plus slack for staleness flushes.
    sim.run_until(sim.now + 10 * TICK_MS)

    assert InvariantAuditor().check_server(server) == []
    applied = {op["id"]: op for op in core.control.log}
    for op_ids, tick_at_submit in submitted:
        for op_id in op_ids:
            op = applied[op_id]
            assert op["status"] == "ok", op
            assert op["applied_tick"] > tick_at_submit
    assert core.control.pending_count() == 0


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    policy=st.sampled_from(SWAPPABLE_POLICIES),
    script=retune_scripts,
)
def test_random_retunes_hold_under_any_starting_policy(policy, script):
    sim, server = boot_server(policy=policy, seed=29)
    core = GatewayCore(server)
    sim.run_until(300.0)
    for payload, ticks in script:
        core.handle("PUT", "/policy", json.dumps(payload))
        sim.run_until(sim.now + ticks * TICK_MS)
    sim.run_until(sim.now + 10 * TICK_MS)
    assert InvariantAuditor().check_server(server) == []
    assert all(op["status"] == "ok" for op in core.control.log)


# ---------------------------------------------------------------------------
# No-op gateway differential
# ---------------------------------------------------------------------------


def run_capture(attach_gateway: bool, read_routes: bool):
    sim, server = boot_server(seed=31, bots=5, audit_every_n_ticks=0)
    captures: dict[str, list] = {}
    original_connect = server.connect

    def tapping_connect(name, handler, **kwargs):
        log = captures.setdefault(name, [])

        def tapped(delivered):
            log.append(delivered.packet)
            handler(delivered)

        return original_connect(name, tapped, **kwargs)

    server.connect = tapping_connect
    core = GatewayCore(server) if attach_gateway else None
    sim.run_until(3_000.0)
    if core is not None and read_routes:
        for route in ("/healthz", "/metrics", "/policy", "/stats", "/ops"):
            status, __, ___ = core.handle("GET", route)
            assert status == 200
    sim.run_until(6_000.0)
    return captures, server


def test_idle_gateway_is_packet_invisible():
    """Attaching the gateway and scraping every read route mid-run
    leaves the simulation packet-for-packet untouched."""
    bare, bare_server = run_capture(attach_gateway=False, read_routes=False)
    observed, observed_server = run_capture(attach_gateway=True, read_routes=True)
    assert set(bare) == set(observed)
    for client in bare:
        assert bare[client] == observed[client], f"stream diverged for {client}"
    assert (
        bare_server.transport.total_bytes() == observed_server.transport.total_bytes()
    )


# ---------------------------------------------------------------------------
# Validation and apply-time failure isolation
# ---------------------------------------------------------------------------


def test_subnormal_staleness_bound_cannot_livelock_the_tick():
    """Regression: a staleness bound so small that ``oldest + staleness``
    rounds to ``oldest`` used to make ``_flush_due_deadlines`` re-push an
    always-due deadline forever (the backlog's age stayed *below* the
    bound while its deadline stayed *at or before* now). Found by the
    random-retune property test; the flush loop must deliver instead."""
    from repro.core.manager import DyconitSystem
    from repro.core.partition import ChunkPartitioner
    from repro.core.bounds import Bounds
    from repro.world.events import EntityMoveEvent
    from repro.world.geometry import Vec3
    from tests.conftest import RecordingSubscriber

    clock = {"now": 1_000.0}
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(1e9, 5e-324)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
    )
    recorder = RecordingSubscriber(1)
    system.subscribe(("chunk", 0, 0), recorder.subscriber)
    system.commit_to(
        ("chunk", 0, 0),
        EntityMoveEvent(1_000.0, 1, Vec3(0, 0, 0), Vec3(1, 0, 0)),
        exclude_subscriber=None,
    )
    flushed = system.tick()  # used to spin forever here
    assert flushed == 1
    assert recorder.delivered_updates


def test_stats_payload_does_not_grow_with_run_length():
    """``GET /stats`` is a fixed set of scalars per dyconit system: the
    per-flush batch list that used to be deep-copied into every response
    (and pickled into every checkpoint) is gone; its one reader wanted
    the number of batches, which is the number of flushes."""
    sim, server = boot_server(seed=7, bots=3, audit_every_n_ticks=0)
    core = GatewayCore(server)

    def stats_at(t):
        sim.run_until(t)
        status, __, body = core.handle("GET", "/stats")
        assert status == 200
        (stats,) = json.loads(body)["stats"]
        return stats

    early, late = stats_at(1_000.0), stats_at(6_000.0)
    assert late["flushes"] > 4 * early["flushes"] > 0
    for stats in (early, late):
        assert stats["per_flush_batch_count"] == stats["flushes"]
        assert all(isinstance(value, (int, float)) for value in stats.values())
    assert set(late) == set(early)
    assert len(json.dumps(late)) < len(json.dumps(early)) + 64  # digits only
    assert all(
        isinstance(value, (int, float))
        for value in vars(server.dyconits.stats).values()
    )


class TestValidation:
    def test_malformed_requests_rejected_and_not_queued(self):
        __, server = boot_server(seed=5, bots=0)
        core = GatewayCore(server)
        for body in (
            None,
            "not json",
            json.dumps(["not", "an", "object"]),
            json.dumps({}),
            json.dumps({"policy": "vanilla"}),
            json.dumps({"policy": "nonsense"}),
            json.dumps({"bounds": {"numerical": -1.0, "staleness_ms": 0.0}}),
            json.dumps({"bounds": {"numerical": 1.0}}),
            json.dumps({"bounds": 5}),
            json.dumps({"bounds": {"numerical": [1], "staleness_ms": 1}}),
            json.dumps({"bounds": {"numerical": "nan", "staleness_ms": 1}}),
            json.dumps({"policy": "fixed", "kwargs": "x"}),
            json.dumps({"policy": "fixed", "kwargs": {"nope": 1}}),
            json.dumps({"policy": ["fixed"]}),
        ):
            status, __, ___ = core.handle("PUT", "/policy", body)
            assert status == 400
        assert core.control.pending_count() == 0
        assert core.control.log == []

    def test_unknown_route_404s(self):
        __, server = boot_server(seed=5, bots=0)
        core = GatewayCore(server)
        assert core.handle("GET", "/nope")[0] == 404
        assert core.handle("PUT", "/healthz")[0] == 404

    def test_apply_time_failure_is_recorded_not_raised(self):
        control = ControlPlane()
        op_id = control.submit(
            {"kind": "set_bounds", "numerical": 1.0, "staleness_ms": 1.0}
        )

        class DirectModeServer:
            dyconits = None

        assert control.apply(DirectModeServer(), tick=7) == 1
        (record,) = control.log
        assert record["id"] == op_id
        assert record["applied_tick"] == 7
        assert record["status"].startswith("error:")

    def test_scoped_retune_hits_only_the_target(self):
        sim, server = boot_server(seed=37, bots=3)
        core = GatewayCore(server)
        sim.run_until(1_000.0)
        system = server.dyconits
        dyconits = list(system.dyconits())
        target = next(d for d in dyconits if d.subscriber_count > 0)
        payload = {
            "bounds": {"numerical": 0.0, "staleness_ms": 0.0},
            "dyconit": list(target.dyconit_id),
        }
        status, __, ___ = core.handle("PUT", "/policy", json.dumps(payload))
        assert status == 202
        sim.run_until(sim.now + 2 * TICK_MS)
        assert all(op["status"] == "ok" for op in core.control.log)
        from repro.core.bounds import Bounds

        zero = Bounds(0.0, 0.0)
        for state in target.subscription_states():
            assert state.bounds == zero
        untouched = [
            state
            for dyconit in system.dyconits()
            if dyconit.dyconit_id != target.dyconit_id
            for state in dyconit.subscription_states()
        ]
        assert untouched and all(state.bounds != zero for state in untouched)


# ---------------------------------------------------------------------------
# S20: the checkpoint op and the store view
# ---------------------------------------------------------------------------


class TestCheckpointEndpoint:
    def boot_with_store(self, tmp_path):
        from repro.backends import SQLiteStateStore

        store = SQLiteStateStore(str(tmp_path / "gateway.db"))
        sim = Simulation()
        server = GameServer(
            sim,
            world=World(seed=23),
            config=ServerConfig(
                seed=23,
                synchronous_delivery=True,
                mob_count=2,
                state_store=store,
            ),
            policy=make_policy("fixed"),
        )
        server.start()
        return sim, server, store

    def test_post_checkpoint_applies_at_the_barrier(self, tmp_path):
        sim, server, store = self.boot_with_store(tmp_path)
        core = GatewayCore(server)
        sim.run_until(500.0)
        tick_at_submit = server.tick_count

        status, __, body = core.handle(
            "POST", "/checkpoint", json.dumps({"key": "nightly"})
        )
        assert status == 202
        op_id = json.loads(body)["accepted"][0]
        assert store.checkpoint_keys() == []  # queued, not yet captured

        sim.run_until(sim.now + 2 * TICK_MS)
        applied = {op["id"]: op for op in core.control.log}
        assert applied[op_id]["status"] == "ok"
        assert applied[op_id]["applied_tick"] > tick_at_submit
        assert store.checkpoint_keys() == ["nightly"]

    def test_get_store_lists_backend_and_keys(self, tmp_path):
        sim, server, store = self.boot_with_store(tmp_path)
        core = GatewayCore(server)
        sim.run_until(300.0)
        core.handle("POST", "/checkpoint", json.dumps({"key": "a"}))
        core.handle("POST", "/checkpoint", json.dumps({"key": "b"}))
        sim.run_until(sim.now + 2 * TICK_MS)

        status, __, body = core.handle("GET", "/store")
        assert status == 200
        view = json.loads(body)
        assert view["stores"] == [{"backend": "sqlite", "checkpoints": ["a", "b"]}]
        assert view["tick"] == server.tick_count

    def test_checkpointed_server_restores_from_the_store_file(self, tmp_path):
        """The operator loop end to end: POST /checkpoint, lose the
        process, reattach a fresh store handle, resume."""
        from repro.backends import SQLiteStateStore
        from repro.server.snapshot import restore_server_from_store

        sim, server, store = self.boot_with_store(tmp_path)
        core = GatewayCore(server)
        sim.run_until(500.0)
        core.handle("POST", "/checkpoint", json.dumps({"key": "dr"}))
        sim.run_until(sim.now + 2 * TICK_MS)
        del server, sim  # SIGKILL semantics: never stopped, never closed

        reattached = SQLiteStateStore(str(tmp_path / "gateway.db"))
        restored = restore_server_from_store(reattached, "dr", handlers={})
        restored.sim.run_until(restored.sim.now + 5 * TICK_MS)
        assert InvariantAuditor().check_server(restored) == []
        restored.close()

    def test_malformed_checkpoint_bodies_rejected(self, tmp_path):
        sim, server, __ = self.boot_with_store(tmp_path)
        core = GatewayCore(server)
        for body in (None, "", "not json", json.dumps({}), json.dumps({"key": ""})):
            status, __, payload = core.handle("POST", "/checkpoint", body)
            assert status == 400, (body, payload)
        assert core.control.pending_count() == 0

    def test_checkpoint_over_real_http(self, tmp_path):
        import urllib.request

        from repro.gateway.app import serve_gateway

        sim, server, store = self.boot_with_store(tmp_path)
        sim.run_until(300.0)
        http = serve_gateway(server)
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{http.port}/checkpoint",
                data=json.dumps({"key": "via-http"}).encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 202
            sim.run_until(sim.now + 2 * TICK_MS)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{http.port}/store"
            ) as response:
                view = json.loads(response.read())
        finally:
            http.stop()
        assert view["stores"][0]["checkpoints"] == ["via-http"]


def test_gateway_refuses_a_parallel_runner():
    """A parallel runner's dyconit systems live in its workers, which
    never apply a control-plane op nor answer a read: attaching must fail
    loudly, before the runner is touched, and not 202 a retune that never
    lands."""
    from repro.cluster import ParallelShardRunner
    from repro.gateway.app import serve_gateway

    runner = ParallelShardRunner(
        Simulation(),
        shards=2,
        config=ServerConfig(seed=23, synchronous_delivery=True, mob_count=0),
        policy_factory=FixedBoundsPolicy,
    )
    try:
        for attach in (GatewayCore, serve_gateway):
            with pytest.raises(ValueError, match="ParallelShardRunner.*worker processes"):
                attach(runner)
        assert getattr(runner, "control_plane", None) is None
    finally:
        runner.close()


@pytest.mark.parametrize("policy", ["zero", "infinite", "distance", "adaptive", "fixed"])
def test_only_the_fixed_policy_shows_and_takes_global_bounds(policy):
    """The gateway tells a static policy by its ``bounds`` attribute. Only
    ``FixedBoundsPolicy`` has one (every other policy's bounds are its
    ``bounds_columns``): ``GET /policy`` shows bounds for it alone, and a
    global bounds ``PUT`` retargets ``policy.bounds`` on it alone."""
    from repro.core.bounds import Bounds

    sim, server = boot_server(policy=policy, bots=1, audit_every_n_ticks=0)
    core = GatewayCore(server)
    sim.run_until(200.0)
    name = type(server.dyconits.policy).__name__

    def shown():
        status, __, body = core.handle("GET", "/policy")
        assert status == 200
        return json.loads(body)["policies"]

    fixed = policy == "fixed"
    expected = {"class": name}
    if fixed:
        expected["bounds"] = {"numerical": 10.0, "staleness_ms": 500.0, "order": "inf"}
    assert shown() == [expected]
    status, __, ___ = core.handle(
        "PUT", "/policy", json.dumps({"bounds": {"numerical": 3.0, "staleness_ms": 40.0}})
    )
    assert status == 202
    sim.run_until(sim.now + 2 * TICK_MS)
    assert [op["status"] for op in core.control.log] == ["ok"]
    assert hasattr(server.dyconits.policy, "bounds") == fixed
    if fixed:
        assert server.dyconits.policy.bounds == Bounds(3.0, 40.0)
        expected["bounds"] = {"numerical": 3.0, "staleness_ms": 40.0, "order": "inf"}
    assert shown() == [expected]
