"""Differential: S17 flat columnar commit path ≡ per-object path.

The safety contract for the columnar commit engine is the PR 2 playbook:
the per-object path stays in the test suite as ground truth
(``PerObjectDyconit``, reached here through the ``"per-object"`` store
:mod:`tests.conftest` registers), and a run on the default memory store
must be *packet-for-packet identical* to the same seeded run on that
store — under a real bounded policy (so queues actually merge and
flush), over 2,000 ticks, on a single server AND on a 2-shard cluster,
with checked-mode audits (which include the I9 columnar checks) sampling
both runs.

Unlike :mod:`tests.test_integration_differential` (zero bounds ≡
vanilla broadcast, the *middleware-is-thin* anchor), these runs keep
nonzero bounds so the flat store's merge/supersede/flush machinery is
exercised on the hot path being compared.
"""

import dataclasses
import inspect
import pathlib

from repro.backends import state_store_factories
from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.cluster import ShardedCluster
from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit
from repro.core.manager import DyconitSystem, SystemSnapshot
from repro.experiments.configs import ExperimentConfig
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.world.world import World

SEED = 77
TICKS = 2_000
TICK_MS = 50.0
DURATION_MS = TICKS * TICK_MS
#: Sampled checked mode: a full I1-I9 audit every N ticks keeps the
#: 2k-tick runs affordable while still auditing the columnar store
#: dozens of times per run (set explicitly so the env override used by
#: the per-tick CI job does not stretch this test's runtime).
AUDIT_EVERY = 250

BOUNDS = Bounds(numerical=10.0, staleness_ms=500.0)


def make_spec(movement="hotspot"):
    return WorkloadSpec(
        bots=8,
        seed=SEED,
        movement=movement,
        behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
        arrival_stagger_ms=40.0,
    )


def make_config(state_store: str) -> ServerConfig:
    return ServerConfig(
        seed=SEED,
        synchronous_delivery=True,
        mob_count=3,
        state_store=state_store,
        audit_every_n_ticks=AUDIT_EVERY,
    )


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


def fixed_policy():
    return FixedBoundsPolicy(BOUNDS)


def run_single(state_store: str, policy_factory=fixed_policy):
    sim = Simulation()
    server = GameServer(
        sim,
        world=World(seed=SEED),
        config=make_config(state_store),
        policy=policy_factory(),
    )
    server.start()
    workload = Workload(sim, server, make_spec())
    captures = tap(server)
    workload.start()
    sim.run_until(DURATION_MS)
    return captures, server


def run_cluster(state_store: str, policy_factory=fixed_policy):
    sim = Simulation()
    cluster = ShardedCluster(
        sim,
        shards=2,
        strip_width=4,
        config=make_config(state_store),
        policy_factory=policy_factory,
    )
    cluster.start()
    workload = Workload(sim, cluster, make_spec("gathering"))
    captures = tap(cluster)
    workload.start()
    sim.run_until(DURATION_MS)
    return captures, cluster


def assert_streams_equal(legacy: dict, batched: dict) -> None:
    assert set(legacy) == set(batched)
    for name in legacy:
        assert legacy[name] == batched[name], f"packet stream diverged for {name}"


def uses_flat_store(system) -> bool:
    return any(isinstance(dyconit, Dyconit) for dyconit in system._dyconits.values())


def test_single_server_2k_ticks_packet_identical():
    legacy, legacy_server = run_single("per-object")
    batched, batched_server = run_single("memory")

    assert legacy_server.tick_count >= TICKS
    # Non-vacuity: the memory run really took the columnar path (and
    # the baseline really did not).
    assert uses_flat_store(batched_server.dyconits)
    assert not uses_flat_store(legacy_server.dyconits)

    assert_streams_equal(legacy, batched)
    assert (
        legacy_server.transport.total_bytes()
        == batched_server.transport.total_bytes()
    )
    assert (
        legacy_server.transport.packets_by_kind()
        == batched_server.transport.packets_by_kind()
    )
    # The dyconit machinery was actually on the hot path (bounded, not
    # pass-through), and both paths agree on its aggregate behaviour.
    assert batched_server.dyconits.stats.updates_merged > 0
    assert legacy_server.dyconits.stats == batched_server.dyconits.stats


def test_two_shard_cluster_2k_ticks_packet_identical():
    legacy, legacy_cluster = run_cluster("per-object")
    batched, batched_cluster = run_cluster("memory")

    assert any(
        uses_flat_store(shard.dyconits) for shard in batched_cluster.shards
    )
    assert not any(
        uses_flat_store(shard.dyconits) for shard in legacy_cluster.shards
    )

    assert_streams_equal(legacy, batched)
    assert legacy_cluster.total_bytes() == batched_cluster.total_bytes()
    assert legacy_cluster.bus.total_bytes == batched_cluster.bus.total_bytes
    assert (
        legacy_cluster.bus.messages_by_kind == batched_cluster.bus.messages_by_kind
    )
    assert legacy_cluster.handoffs == batched_cluster.handoffs
    # The federated run exercised cross-shard machinery, not just two
    # independent servers.
    assert legacy_cluster.bus.total_messages > 0
    assert legacy_cluster.handoffs > 0


def test_no_product_option_selects_a_reference_path():
    """Which path runs is decided by the store (and, for the scan twins,
    by a test's monkeypatch) — never by a config field, a constructor
    argument or a ``flat`` request to the store."""
    toggles = {"use_viewer_index", "use_batched_commit"}
    for config in (ServerConfig, ExperimentConfig, SystemSnapshot):
        names = {field.name for field in dataclasses.fields(config)}
        assert not toggles & names, config.__name__
    assert not toggles & set(inspect.signature(DyconitSystem.__init__).parameters)
    for name, factory in state_store_factories().items():
        parameters = inspect.signature(factory.create_dyconit_state).parameters
        assert "flat" not in parameters, name
    assert "flat" not in inspect.signature(Dyconit.__init__).parameters
    # ...nor can a handle change representation mid-life.
    gone = "_ensure" + "_private"
    root = pathlib.Path(__file__).resolve().parent.parent
    for path in [*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")]:
        assert gone not in path.read_text(), path
