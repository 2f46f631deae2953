"""The retune pass (S23) against a per-pair reference sweep.

First every boundary of ``Bounds.tripped_dimension`` on every store — at
the staleness bound exactly, an infinite staleness bound, numerical over
staleness over order, an empty queue, a peer — then a whole run:
``adaptive-hotspot`` in small — the public constructors and settings of
``bench/workloads.py`` (hotspot crowd, ``BUILDER_MIX``, joins 10 ms apart,
``AdaptiveBoundsPolicy(tighten_factor=0.95)``), 16 bots, 10 simulated
seconds, one retune a second — run twice per store: once as the product
runs it, and once with ``DyconitSystem.retune_clients`` replaced by
:func:`per_pair_retune`, the sweep the product made before S23 (one
``set_bounds(bounds_from(...))`` per (client, dyconit) pair, clients in
registration order, each one's dyconits in membership order), kept here
as the oracle only. Everything a client or the evaluation can see must be
equal: the packets delivered in every 50 ms window, the bench's state
digest, ``DyconitStats`` (``queue_delay_total_ms``, a float sum taken in
flush order, included), every due time after every window, every flush in
order, and every bound bit.

CI runs this module under two ``PYTHONHASHSEED`` values.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.bots.workload import BUILDER_MIX, Workload, WorkloadSpec
from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.policy import Policy
from repro.policies import AdaptiveBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber

BOTS = 16
SEED = 1
TICK_MS = 50.0
END_MS = 10_000.0
CHUNK_A, CHUNK_B = ("chunk", 0, 0), ("chunk", 1, 0)


def move(entity_id: int) -> EntityMoveEvent:
    """An update of weight 1 at t=0."""
    return EntityMoveEvent(0.0, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


def per_pair_retune(system, bounds_columns) -> None:
    """The oracle: the retune as a per-pair ``set_bounds`` sweep."""
    policy = bounds_columns.__self__
    for subscriber in list(system.subscribers()):
        if subscriber.kind != "client":
            continue
        position = subscriber.position
        for dyconit_id in system.subscription_ids_of(subscriber.subscriber_id):
            system.set_bounds(
                dyconit_id,
                subscriber.subscriber_id,
                policy.bounds_from(system, dyconit_id, position),
            )


def state_digest(server, fleet) -> str:
    """``bench/trial.py``'s digest: authoritative entity positions, every
    bot's replica and packet count, per-kind packet and byte totals."""
    digest = hashlib.sha256()
    entities = sorted(
        (entity.entity_id, entity.position.x, entity.position.y, entity.position.z)
        for entity in server.world.entities()
    )
    digest.update(repr(entities).encode())
    for bot in fleet.bots:
        replica = sorted(
            (entity_id, position.x, position.y, position.z)
            for entity_id, position in bot.perceived.entity_positions.items()
        )
        digest.update(repr((bot.name, bot.packets_received, replica)).encode())
    digest.update(repr(sorted(server.transport.packets_by_kind().items())).encode())
    digest.update(repr(sorted(server.transport.bytes_by_kind().items())).encode())
    return digest.hexdigest()


def run(state_store: str, retune, monkeypatch) -> dict:
    """One crowd run with ``retune`` as ``DyconitSystem.retune_clients``;
    returns everything the test compares."""
    flushes = []
    retune_flushes = []
    flushed = DyconitSystem._flushed

    def recording_flushed(system, dyconit_id, subscriber, updates, reason):
        flushes.append(
            (system.now, repr(dyconit_id), subscriber.subscriber_id, reason, tuple(updates))
        )
        flushed(system, dyconit_id, subscriber, updates, reason)

    def counting_retune(system, bounds_columns):
        before = len(flushes)
        retune(system, bounds_columns)
        retune_flushes.append(len(flushes) - before)

    monkeypatch.setattr(DyconitSystem, "_flushed", recording_flushed)
    monkeypatch.setattr(DyconitSystem, "retune_clients", counting_retune)
    sim = Simulation()
    server = GameServer(
        sim,
        config=ServerConfig(synchronous_delivery=True, state_store=state_store, seed=SEED),
        policy=AdaptiveBoundsPolicy(tighten_factor=0.95),
    )
    server.start()
    fleet = Workload(
        sim,
        server,
        WorkloadSpec(
            bots=BOTS,
            seed=SEED,
            movement="hotspot",
            behavior=BUILDER_MIX,
            arrival_stagger_ms=10.0,
            measure_interval_ms=0.0,
        ),
    )
    fleet.start()
    system = server.dyconits
    packets, due = [], []
    now = 0.0
    while now < END_MS:
        now += TICK_MS
        sim.run_until(now)
        packets.append(sum(bot.packets_received for bot in fleet.bots))
        due.append(dict(system._due_at))
    server.audit_now()
    result = {
        "packets per window": packets,
        "state digest": state_digest(server, fleet),
        "stats": system.stats,
        "due times": due,
        "flushes": flushes,
        "retune flushes": retune_flushes,
        "bounds": [
            (repr(dyconit.dyconit_id), state.subscriber.subscriber_id, state.bounds)
            for dyconit in system.dyconits()
            for state in dyconit.subscription_states()
        ],
        "factors": system.policy.factor_history,
    }
    server.close()
    monkeypatch.undo()
    return result


#: Bounds per subscriber id for the boundary test below; every queue holds
#: two updates of weight 1 committed at t=0, and the retune runs at t=100.
BOUNDARY_BOUNDS = {
    1: (0.5, 1e9, math.inf),  # numerical: error 2 > 0.5
    2: (1e9, 100.0, math.inf),  # staleness, age exactly at the bound
    3: (1e9, math.inf, math.inf),  # an infinite staleness bound never trips
    4: (1e9, 1e9, 1.0),  # order: 2 queued > 1
    5: (0.5, 50.0, 0.0),  # all three: numerical wins
    6: (1e9, 130.0, math.inf),  # no trip: due at 130
    7: (1e9, 120.0, math.inf),  # subscribed after the commits: empty
}


class BoundsBySubscriber(Policy):
    """Installs ``BOUNDARY_BOUNDS`` on a retune; a client's position's x
    is its subscriber id."""

    def initial_bounds(self, system, dyconit_id, subscriber):
        return Bounds(1e9, 1000.0)

    def bounds_from(self, system, dyconit_id, position):
        return Bounds(*BOUNDARY_BOUNDS[int(position.x)])

    def bounds_columns(self, system, dyconit_ids, positions):
        rows = [BOUNDARY_BOUNDS[int(position.x)] for position in positions]
        return tuple(np.array(column) for column in zip(*rows))


def boundary_system(state_store):
    """Two dyconits with queues for clients 1–6 (subscribed in opposite
    orders), client 7 subscribed after the commits, a peer with zero
    bounds; the clock stands at 100 ms."""
    clock = {"now": 0.0}
    system = DyconitSystem(
        BoundsBySubscriber(),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        state_store=state_store,
    )
    recorders = {
        sub_id: RecordingSubscriber(sub_id, position=Vec3(float(sub_id), 0.0, 0.0))
        for sub_id in range(1, 9)
    }
    recorders[8].subscriber.kind = "peer"
    for sub_id in range(1, 7):
        for chunk in (CHUNK_A, CHUNK_B)[:: 1 if sub_id % 2 else -1]:
            system.subscribe(chunk, recorders[sub_id].subscriber)
    for chunk in (CHUNK_A, CHUNK_B):
        system.subscribe(chunk, recorders[8].subscriber, bounds=Bounds.ZERO)
        system.commit_to(chunk, move(1))
        system.commit_to(chunk, move(2))
        system.subscribe(chunk, recorders[7].subscriber)
    clock["now"] = 100.0
    return system, recorders


@pytest.mark.parametrize("state_store", ["memory", "per-object", "sqlite", "postgres-dialect"])
def test_retune_trips_exactly_what_set_bounds_would(state_store):
    """Every ``Bounds.tripped_dimension`` boundary through the pass, on
    every store, against the per-pair sweep installing the same bounds."""
    outcomes = []
    for retune in (DyconitSystem.retune_clients, per_pair_retune):
        system, recorders = boundary_system(state_store)
        with system._flush_scope():  # as evaluate_policy runs it
            retune(system, system.policy.bounds_columns)
        outcomes.append(
            (
                system.stats,
                dict(system._due_at),
                {sub_id: recorder.deliveries for sub_id, recorder in recorders.items()},
                [
                    (state.subscriber.subscriber_id, state.bounds)
                    for dyconit in system.dyconits()
                    for state in dyconit.subscription_states()
                ],
            )
        )
        system.close()
    (stats, due, deliveries, bounds), reference = outcomes
    assert (stats, due, deliveries, bounds) == reference
    # The peer's four commit-time flushes, then clients 1 and 5 ...
    assert (stats.flushes_numerical, stats.flushes_staleness, stats.flushes_order) == (8, 2, 2)
    # ... and seven subscribers per commit, then the twelve client queues.
    assert stats.bound_checks == 4 * 7 + 2 * 6
    assert due == {CHUNK_A: 130.0, CHUNK_B: 130.0}
    assert [dyconit_id for dyconit_id, __ in deliveries[2]] == [CHUNK_B, CHUNK_A]
    assert deliveries[3] == deliveries[6] == deliveries[7] == []
    assert (8, Bounds.ZERO) in bounds


@pytest.mark.parametrize("state_store", ["memory", "sqlite"])
def test_retune_pass_equals_the_per_pair_sweep(state_store, monkeypatch):
    product = run(state_store, DyconitSystem.retune_clients, monkeypatch)
    reference = run(state_store, per_pair_retune, monkeypatch)
    factors = [factor for __, factor in product["factors"]]
    assert len(set(factors)) >= 9  # a retune (nearly) every second
    assert sum(product["retune flushes"]) > 40  # and they trip queues
    for key, value in reference.items():
        assert product[key] == value, f"{key} differs from the per-pair sweep"
