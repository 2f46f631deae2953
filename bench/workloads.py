"""The five benchmark workloads and how each is built.

Everything is assembled from the public constructors (``Simulation``,
``GameServer`` / ``ParallelShardRunner``, ``Workload``) with only the
fields a workload needs. ``use_batched_commit`` / ``use_viewer_index`` are
never passed: ROADMAP item 3 deletes them, and a change that claims a gain
may not edit this directory.

The load is an open loop in *simulated* time: every bot acts each 100 ms of
simulated time whatever the wall clock does, so two commits under
comparison do identical work per window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from repro.bots.workload import BUILDER_MIX, Workload, WorkloadSpec
from repro.cluster import ParallelShardRunner
from repro.core.partition import ChunkPartitioner
from repro.policies import AdaptiveBoundsPolicy, DistanceBasedPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation

#: Joins 10 ms apart put the bots' 100 ms action cycles on ten evenly
#: spaced phases, so every 50 ms tick receives the actions of exactly half
#: the fleet. (The default 20 ms stagger gives five phases split 3:2 between
#: alternate ticks: a bimodal per-tick cost whose median flips between the
#: two modes.)
ARRIVAL_STAGGER_MS = 10.0

#: The default servo tightens by 0.75 per second and reaches factor 0 — zero
#: bounds, i.e. no inconsistency traded at all — 10 s into a lightly loaded
#: run (measured: 50 bots, seed 1). 0.95 keeps the factor between 0.9 and
#: 0.2 for the first 30 simulated seconds, so every measured window has
#: non-zero bounds, a live deadline heap and one policy sweep per second,
#: however many windows the machine gets through.
adaptive_policy = functools.partial(AdaptiveBoundsPolicy, tighten_factor=0.95)

#: Fleet size of every workload under ``--quick`` (smoke runs and tests).
QUICK_BOTS = 8


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    #: One line for BENCHMARK.json: what the workload stresses.
    why: str
    bots: int
    movement: str
    #: Picklable policy factory (it crosses into shard workers); ``None``
    #: runs the server in direct mode with no middleware at all.
    policy: Callable | None
    state_store: str = "memory"
    shards: int = 1
    spawn_radius: float = 48.0


WORKLOADS: tuple[WorkloadDef, ...] = (
    WorkloadDef(
        name="vanilla-hotspot",
        why="direct mode, no repro.core at all: world, codec, transport, link and "
        "bot apply carry the cost; the bypass workload for every middleware change",
        bots=40,
        movement="hotspot",
        policy=None,
    ),
    WorkloadDef(
        name="adaptive-hotspot",
        why="the same crowd under AdaptiveBoundsPolicy on the memory store: commit, "
        "deadline-heap flush and per-second bound sweeps; its ratio to vanilla-hotspot "
        "is the middleware's price",
        bots=40,
        movement="hotspot",
        policy=adaptive_policy,
    ),
    WorkloadDef(
        name="distance-trek",
        why="bots spread over a 600-block disc walking outward: small fan-out, constant "
        "chunk crossings, so interest refresh, subscription churn and set_bounds "
        "sweeps dominate, not commit/flush",
        # 64 bots cross a chunk border 1.1 times per window on average, so
        # the median window is one with a single crossing — well inside that
        # group, not on its edge (at 80 bots it sat between one crossing and
        # two, and jumped 30% from seed to seed).
        bots=64,
        movement="trek",
        policy=DistanceBasedPolicy,
        spawn_radius=600.0,
    ),
    WorkloadDef(
        name="adaptive-sqlite",
        why="adaptive-hotspot's scenario with fewer bots on state_store=sqlite: the "
        "per-object commit walk over a row store, the only workload where "
        "repro.backends does the work",
        bots=20,
        movement="hotspot",
        policy=adaptive_policy,
        state_store="sqlite",
    ),
    WorkloadDef(
        name="adaptive-par2",
        why="a crowd gathered on the strip border of 2 shards under ParallelShardRunner: "
        "worker IPC, bus rounds and handoffs; the parent mostly waits on its workers",
        bots=32,
        movement="gathering",
        policy=adaptive_policy,
        shards=2,
        # Spawned inside the gathering itself (GatheringModel's jitter is 10
        # blocks), so the crowd straddles the border from the first window
        # on; from the default 48-block disc the bots are still walking in
        # when the steady phase starts and the handoff rate keeps climbing.
        spawn_radius=10.0,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def build(workload: WorkloadDef, seed: int, bots: int | None = None):
    """Construct and start one run; returns ``(sim, server, fleet)``.

    ``seed`` reaches the program only through ``ServerConfig.seed`` and
    ``WorkloadSpec.seed``. Telemetry stays off (the ``NULL_TELEMETRY``
    default), there are no faults and no gateway, and delivery is
    synchronous.
    """
    sim = Simulation()
    config = ServerConfig(
        synchronous_delivery=True,
        state_store=workload.state_store,
        seed=seed,
    )
    if workload.shards > 1:
        server = ParallelShardRunner(
            sim,
            shards=workload.shards,
            config=config,
            policy_factory=workload.policy,
            partitioner_factory=ChunkPartitioner,
        )
    elif workload.policy is None:
        server = GameServer(sim, config=config, direct_mode=True)
    else:
        server = GameServer(sim, config=config, policy=workload.policy())
    server.start()
    fleet = Workload(
        sim,
        server,
        WorkloadSpec(
            bots=workload.bots if bots is None else bots,
            seed=seed,
            movement=workload.movement,
            behavior=BUILDER_MIX,
            arrival_stagger_ms=ARRIVAL_STAGGER_MS,
            spawn_radius=workload.spawn_radius,
            # The harness samples replicas itself, between timed windows.
            measure_interval_ms=0.0,
        ),
    )
    fleet.start()
    return sim, server, fleet
