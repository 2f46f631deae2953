"""The retune pass (S23) and the crossing pass (S33) against per-pair
reference sweeps.

First every boundary of ``Bounds.tripped_dimension`` on every store — at
the staleness bound exactly, an infinite staleness bound, numerical over
staleness over order, an empty queue, a peer — then a whole run:
``adaptive-hotspot`` in small — the public constructors and settings of
``bench/workloads.py`` (hotspot crowd, ``BUILDER_MIX``, joins 10 ms apart,
``AdaptiveBoundsPolicy(tighten_factor=0.95)``), 16 bots, 10 simulated
seconds, one retune a second — run twice per store: once as the product
runs it, and once with ``DyconitSystem.retune_clients`` replaced by
:func:`per_pair_retune`, a per-pair sweep kept here as the oracle only
(one ``set_bounds`` per (client, dyconit) pair with the bounds of the
scalar formula in ``tests/conftest.py``, clients in registration order,
each one's dyconits in membership order). Everything a client or the
evaluation can see must be equal: the packets delivered in every 50 ms
window, the bench's state digest, ``DyconitStats``
(``queue_delay_total_ms``, a float sum taken in flush order, included),
every due time after every window, every flush in order, and every bound
bit.

The crossing pass — ``DyconitSystem.retune_subscriber``, one
``bounds_columns`` call over a crossing subscriber's membership and one
``rebound_one`` per dyconit — is held to :func:`reapply_bounds`, the
per-pair ``set_bounds`` sweep policies made on a crossing before S33, the
same way: the trip boundaries on every store, each store's
``rebound_one`` against the per-object reference row for row, and whole
runs of a trek crowd under ``DistanceBasedPolicy`` and of the adaptive
crowd above.

CI runs this module under two ``PYTHONHASHSEED`` values.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.bots.workload import BUILDER_MIX, Workload, WorkloadSpec
from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, ChunkPartitioner
from repro.core.policy import PairTable, Policy
from repro.policies import (
    AdaptiveBoundsPolicy,
    DistanceBasedPolicy,
    ElasticPartitioningPolicy,
    FixedBoundsPolicy,
    InfiniteBoundsPolicy,
    InterestCutoffPolicy,
    ZeroBoundsPolicy,
)
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.telemetry.hub import Telemetry
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import RecordingSubscriber, columns_as_bounds, oracle_bounds

BOTS = 16
SEED = 1
TICK_MS = 50.0
END_MS = 10_000.0
CHUNK_A, CHUNK_B = ("chunk", 0, 0), ("chunk", 1, 0)


def move(entity_id: int) -> EntityMoveEvent:
    """An update of weight 1 at t=0."""
    return EntityMoveEvent(0.0, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


def scalar_bounds(policy):
    """``(system, dyconit_id, position) -> Bounds`` one pair at a time:
    the boundary policy's own table, else the scalar formula."""
    if isinstance(policy, BoundsBySubscriber):
        return policy.bounds_from
    return lambda system, dyconit_id, position: oracle_bounds(
        policy, system, dyconit_id, position
    )


def per_pair_retune(system, bounds_columns) -> None:
    """The oracle: the retune as a per-pair ``set_bounds`` sweep."""
    bounds_from = scalar_bounds(bounds_columns.__self__)
    for subscriber in list(system.subscribers()):
        if subscriber.kind != "client":
            continue
        position = subscriber.position
        for dyconit_id in system.subscription_ids_of(subscriber.subscriber_id):
            system.set_bounds(
                dyconit_id,
                subscriber.subscriber_id,
                bounds_from(system, dyconit_id, position),
            )


def reapply_bounds(system, subscriber, bounds_from) -> None:
    """The crossing oracle: ``set_bounds(bounds_from(system, dyconit_id,
    position))`` per dyconit of ``subscriber``, in membership order, with
    the position read once."""
    subscriber_id = subscriber.subscriber_id
    position = subscriber.position
    for dyconit_id in system.subscription_ids_of(subscriber_id):
        system.set_bounds(dyconit_id, subscriber_id, bounds_from(system, dyconit_id, position))


def per_pair_crossing(system, subscriber, bounds_columns) -> None:
    """``DyconitSystem.retune_subscriber`` as the oracle sweep."""
    reapply_bounds(system, subscriber, scalar_bounds(bounds_columns.__self__))


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


#: The two crowds: ``adaptive-hotspot`` in small, and ``distance-trek`` in
#: small — trek movement under ``DistanceBasedPolicy``, but from the
#: default 48-block disc rather than the bench's 600-block one, so the bots
#: start inside each other's views and their crossings find queues pending.
CROWDS = {
    "adaptive": (lambda: AdaptiveBoundsPolicy(tighten_factor=0.95), "hotspot"),
    "trek": (DistanceBasedPolicy, "trek"),
}


def run(
    state_store: str,
    monkeypatch,
    retune=DyconitSystem.retune_clients,
    crossing=DyconitSystem.retune_subscriber,
    crowd: str = "adaptive",
) -> dict:
    """One crowd run with ``retune`` as ``DyconitSystem.retune_clients``
    and ``crossing`` as ``DyconitSystem.retune_subscriber``; returns
    everything the tests compare."""
    flushes = []
    retune_flushes = []
    crossing_flushes = []
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

    def counting_crossing(system, subscriber, bounds_columns):
        before = len(flushes)
        crossing(system, subscriber, bounds_columns)
        crossing_flushes.append(len(flushes) - before)

    monkeypatch.setattr(DyconitSystem, "_flushed", recording_flushed)
    monkeypatch.setattr(DyconitSystem, "retune_clients", counting_retune)
    monkeypatch.setattr(DyconitSystem, "retune_subscriber", counting_crossing)
    policy, movement = CROWDS[crowd]
    sim = Simulation()
    server = GameServer(
        sim,
        config=ServerConfig(synchronous_delivery=True, state_store=state_store, seed=SEED),
        policy=policy(),
    )
    server.start()
    fleet = Workload(
        sim,
        server,
        WorkloadSpec(
            bots=BOTS,
            seed=SEED,
            movement=movement,
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
        "crossing flushes": crossing_flushes,
        "bounds": [
            (repr(dyconit.dyconit_id), state.subscriber.subscriber_id, state.bounds)
            for dyconit in system.dyconits()
            for state in dyconit.subscription_states()
        ],
        "factors": getattr(system.policy, "factor_history", None),
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


#: What :func:`boundary_system` subscribes its clients with.
SUBSCRIBE_BOUNDS = Bounds(1e9, 1000.0)


class BoundsBySubscriber(Policy):
    """Installs ``BOUNDARY_BOUNDS``; a client's position's x is its
    subscriber id."""

    def bounds_from(self, system, dyconit_id, position):
        return Bounds(*BOUNDARY_BOUNDS[int(position.x)])

    def bounds_columns(self, system, table):
        xs = table.positions[table.position_rows, 0].tolist()
        rows = [BOUNDARY_BOUNDS[int(x)] for x in xs]
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
            system.subscribe(chunk, recorders[sub_id].subscriber, bounds=SUBSCRIBE_BOUNDS)
    for chunk in (CHUNK_A, CHUNK_B):
        system.subscribe(chunk, recorders[8].subscriber, bounds=Bounds.ZERO)
        system.commit_to(chunk, move(1))
        system.commit_to(chunk, move(2))
        system.subscribe(chunk, recorders[7].subscriber, bounds=SUBSCRIBE_BOUNDS)
    clock["now"] = 100.0
    return system, recorders


@pytest.mark.parametrize("state_store", ["memory", "per-object", "sqlite"])
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
    product = run(state_store, monkeypatch)
    reference = run(state_store, monkeypatch, retune=per_pair_retune)
    factors = [factor for __, factor in product["factors"]]
    assert len(set(factors)) >= 9  # a retune (nearly) every second
    assert sum(product["retune flushes"]) > 40  # and they trip queues
    for key, value in reference.items():
        assert product[key] == value, f"{key} differs from the per-pair sweep"


# ----------------------------------------------------------------------
# The crossing pass (S33)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("state_store", ["memory", "per-object", "sqlite"])
def test_crossing_trips_exactly_what_set_bounds_would(state_store):
    """Every ``Bounds.tripped_dimension`` boundary through the crossing
    pass, on every store: each client's crossing, in registration order,
    against the per-pair sweep installing the same bounds."""
    outcomes = []
    for crossing in (DyconitSystem.retune_subscriber, per_pair_crossing):
        system, recorders = boundary_system(state_store)
        for sub_id in range(1, 8):
            with system._flush_scope():  # as notify_subscriber_moved runs it
                crossing(system, recorders[sub_id].subscriber, system.policy.bounds_columns)
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
    assert (stats.flushes_numerical, stats.flushes_staleness, stats.flushes_order) == (8, 2, 2)
    assert stats.bound_checks == 4 * 7 + 2 * 6
    assert due == {CHUNK_A: 130.0, CHUNK_B: 130.0}
    # Client 2 subscribed B first: its crossing drains in membership order.
    assert [dyconit_id for dyconit_id, __ in deliveries[2]] == [CHUNK_B, CHUNK_A]
    assert deliveries[3] == deliveries[6] == deliveries[7] == []
    assert (8, Bounds.ZERO) in bounds


#: ``rebound_one`` rows: (subscriber, (numerical, staleness, order)). The
#: queues of clients 1-6 hold two updates of weight 1 from t=0, client 7's
#: is empty, client 9 is not subscribed; the install runs at t=100.
ROWS = [
    (1, (0.5, 1e9, math.inf)),  # numerical
    (2, (1e9, 100.0, math.inf)),  # staleness exactly at the bound
    (3, (1e9, math.inf, math.inf)),  # an infinite staleness bound never trips
    (4, (1e9, 1e9, 1.0)),  # order
    (5, (0.5, 50.0, 0.0)),  # numerical over staleness over order
    (6, (1e9, 50.0, 0.0)),  # staleness over order
    (6, (1e9, 130.0, math.inf)),  # nothing left: an empty queue
    (7, (0.0, 0.0, 0.0)),  # an empty queue trips nothing, even at zero
    (9, (0.0, 0.0, 0.0)),  # not subscribed
    (3, (1e9, 130.0, math.inf)),  # pending, not tripped: due at 130
]


def rebound_rows(state_store):
    system, recorders = boundary_system(state_store)
    handle = system.get(CHUNK_A)
    results = [
        (sub_id, *handle.rebound_one(sub_id, *bounds, 100.0)) for sub_id, bounds in ROWS
    ]
    states = handle.subscription_states()
    bounds = [(state.subscriber.subscriber_id, state.bounds) for state in states]
    pending = [
        (state.subscriber.subscriber_id, state.oldest_pending_time, len(state.pending))
        for state in states
    ]
    system.close()
    return [
        (sub_id, examined, reason, None if updates is None else list(updates), deadline)
        for sub_id, examined, reason, updates, deadline in results
    ], bounds, pending


@pytest.mark.parametrize("state_store", ["memory", "sqlite"])
def test_rebound_one_equals_the_per_object_reference(state_store):
    """One scalar install-and-check per row, on every store, equal to the
    per-object reference's: returned tuples, installed bounds bit for bit,
    and what stays queued."""
    product = rebound_rows(state_store)
    reference = rebound_rows("per-object")
    assert product == reference
    results, bounds, pending = reference
    # (subscriber, examined, reason, deadline) per row
    assert [(row[0], row[1], row[2], row[4]) for row in results] == [
        (1, 1, "numerical", math.inf),
        (2, 1, "staleness", math.inf),
        (3, 1, None, math.inf),
        (4, 1, "order", math.inf),
        (5, 1, "numerical", math.inf),
        (6, 1, "staleness", math.inf),
        (6, 0, None, math.inf),
        (7, 0, None, math.inf),
        (9, 0, None, math.inf),
        (3, 1, None, 130.0),
    ]
    assert all(len(results[i][3]) == 2 for i in (0, 1, 3, 4, 5))
    assert 9 not in {sub_id for sub_id, __ in bounds}
    assert dict(bounds)[3] == Bounds(1e9, 130.0)
    assert dict(bounds)[7] == Bounds(0.0, 0.0, 0.0)
    assert [row for row in pending if row[2]] == [(3, 0.0, 2)]


@pytest.mark.parametrize("crowd", ["trek", "adaptive"])
@pytest.mark.parametrize("state_store", ["memory", "sqlite"])
def test_crossing_pass_equals_the_per_pair_sweep(state_store, crowd, monkeypatch):
    product = run(state_store, monkeypatch, crowd=crowd)
    reference = run(state_store, monkeypatch, crossing=per_pair_crossing, crowd=crowd)
    assert len(product["crossing flushes"]) > 40  # crossings happen ...
    assert sum(product["crossing flushes"]) > 50  # ... and they trip queues
    for key, value in reference.items():
        assert product[key] == value, f"{key} differs from the per-pair sweep"


@pytest.mark.parametrize(
    "policy_class", [DistanceBasedPolicy, AdaptiveBoundsPolicy, InterestCutoffPolicy]
)
def test_crossing_logs_the_decisions_set_bounds_would(policy_class):
    """With telemetry on, a crossing logs one ``bounds`` decision per
    dyconit, each before that dyconit's flush, exactly as the per-pair
    sweep through ``set_bounds`` does."""
    logs = []
    for oracle in (False, True):
        policy = policy_class()
        crossing = per_pair_crossing if oracle else DyconitSystem.retune_subscriber
        clock = {"now": 0.0}
        system = DyconitSystem(
            policy,
            ChunkPartitioner(),
            time_source=lambda: clock["now"],
            telemetry=Telemetry(enabled=True),
        )
        mover = RecordingSubscriber(1, position=Vec3(8.0, 30.0, 8.0))
        for cx in range(-4, 5):
            system.subscribe(("chunk", cx, 0), mover.subscriber, bounds=Bounds(1e9, 1e9))
            system.commit_to(("chunk", cx, 0), move(2))
        clock["now"] = 300.0
        with system._flush_scope():
            crossing(system, mover.subscriber, policy.bounds_columns)
        logs.append(
            [
                (event.kind, dict(event.fields))
                for event in system.telemetry.events
                if event.kind.startswith("trace.")
            ]
        )
    product, reference = logs
    assert product == reference
    kinds = [kind for kind, __ in product]
    assert kinds.count("trace.bounds") == 9 and "trace.flush" in kinds



# ----------------------------------------------------------------------
# The pair table's edges (S36)
# ----------------------------------------------------------------------


#: Policies whose bounds the edge crowd below is retuned with: the ones
#: with a distance surface at its corners (a zero floor with a non-positive
#: exponent on distance-0 pairs, a fractional exponent, a scaled surface),
#: AOI, the constant policies (one with a finite order bound) and Elastic.
EDGE_POLICIES = {
    "adaptive-zero-floor": lambda: AdaptiveBoundsPolicy(
        shape=DistanceBasedPolicy(min_chunk_distance=0.0, numerical_exponent=-1.0)
    ),
    "distance-exponent-0": lambda: DistanceBasedPolicy(
        min_chunk_distance=0.0, numerical_exponent=0.0
    ),
    "distance-exponent-1.5": lambda: DistanceBasedPolicy(numerical_exponent=1.5),
    "aoi": lambda: InterestCutoffPolicy(1.0),
    "fixed": lambda: FixedBoundsPolicy(Bounds(1.5, 60.0, 1.0)),
    "infinite": InfiniteBoundsPolicy,
    "zero": ZeroBoundsPolicy,
    "elastic": lambda: ElasticPartitioningPolicy(AdaptiveBoundsPolicy()),
}

#: The peer's bounds: chosen by its own shard, never retuned here.
PEER_BOUNDS = Bounds(7.0, 70.0, 3.0)


def edge_system(state_store, policy):
    """Clients 1, 2 and 4 standing on the centroid of chunk (0, 0), between
    chunks and far off; client 3 with no position; a peer (9) subscribed
    to two client dyconits and alone on ("chunk", 9, 9); chunks (2, 0)
    and (3, 0) merged into one region after the subscriptions. Every
    queue holds moves from t=0..40 but client 5's, subscribed after them;
    the clock stands at 150 ms."""
    clock = {"now": 0.0}
    system = DyconitSystem(
        policy, ChunkPartitioner(), time_source=lambda: clock["now"], state_store=state_store
    )
    positions = {
        1: Vec3(8.0, 64.0, 8.0),
        2: Vec3(40.5, 64.0, -20.25),
        4: Vec3(-30.0, 64.0, 50.0),
        5: Vec3(100.0, 64.0, -100.0),
    }
    recorders = {
        sub_id: RecordingSubscriber(sub_id, position=positions.get(sub_id))
        for sub_id in (1, 2, 3, 4, 5, 9)
    }
    recorders[9].subscriber.kind = "peer"
    chunks = [("chunk", cx, 0) for cx in range(-2, 4)] + [GLOBAL_DYCONIT]
    for sub_id in (1, 2, 3, 4):
        for dyconit_id in chunks[:: 1 if sub_id % 2 else -1]:
            system.subscribe(dyconit_id, recorders[sub_id].subscriber, bounds=Bounds(1e9, 1e9))
    for dyconit_id in (("chunk", 0, 0), ("chunk", 1, 0), ("chunk", 9, 9)):
        system.subscribe(dyconit_id, recorders[9].subscriber, bounds=PEER_BOUNDS)
    system.merge_dyconits([("chunk", 2, 0), ("chunk", 3, 0)], ("region", 4, 0, 0))
    for time in (0.0, 20.0, 40.0):
        clock["now"] = time
        for entity_id, dyconit_id in enumerate([*chunks, ("chunk", 9, 9)]):
            update = EntityMoveEvent(time, entity_id % 3 + 1, Vec3(0, 0, 0), Vec3(0.5, 0, 0))
            system.commit_to(dyconit_id, update)
    for dyconit_id in chunks:
        system.subscribe(dyconit_id, recorders[5].subscriber, bounds=Bounds(1e9, 1e9))
    clock["now"] = 150.0
    return system, recorders


def everything(system, recorders) -> tuple:
    return (
        system.stats,
        dict(system._due_at),
        {sub_id: recorder.deliveries for sub_id, recorder in recorders.items()},
        [
            (repr(dyconit.dyconit_id), state.subscriber.subscriber_id, state.bounds)
            for dyconit in system.dyconits()
            for state in dyconit.subscription_states()
        ],
    )


@pytest.mark.parametrize("policy_name", EDGE_POLICIES)
@pytest.mark.parametrize("state_store", ["memory", "per-object", "sqlite"])
def test_retune_table_edges_equal_the_per_pair_sweep(state_store, policy_name):
    """Peers mixed into client dyconits, a client without a position, a
    merged dyconit, a dyconit with no client slot and the surface's
    corners, on every store: the retune ≡ the per-pair sweep, the table's
    columns ≡ :func:`tests.conftest.oracle_bounds` pair for pair, bit for
    bit, and the peer's bounds untouched."""
    outcomes = []
    for retune in (DyconitSystem.retune_clients, per_pair_retune):
        policy = EDGE_POLICIES[policy_name]()
        system, recorders = edge_system(state_store, policy)
        if retune is per_pair_retune:
            bounds_columns = policy.bounds_columns
        else:
            tables = []

            def bounds_columns(system, table, derive=policy.bounds_columns):
                tables.append(table)
                return derive(system, table)

        with system._flush_scope():  # as evaluate_policy runs it
            retune(system, bounds_columns)
        outcomes.append(everything(system, recorders))
        if retune is DyconitSystem.retune_clients:
            (table,) = tables
            columns = columns_as_bounds(policy.bounds_columns(system, table))
            pairs = [
                (
                    table.dyconit_ids[id_row],
                    None if math.isnan(x) else Vec3(x, 64.0, z),
                )
                for id_row, (x, z) in zip(
                    table.id_rows.tolist(), table.positions[table.position_rows].tolist()
                )
            ]
            assert columns == [oracle_bounds(policy, system, *pair) for pair in pairs]
            assert ("chunk", 9, 9) not in table.dyconit_ids  # no client slot
            assert ("region", 4, 0, 0) in table.dyconit_ids
            assert len(table) == 5 * 6  # 5 clients x (4 chunks + region + global)
        system.close()
    product, reference = outcomes
    assert product == reference
    bounds = product[3]
    assert [b for __, sub_id, b in bounds if sub_id == 9] == [PEER_BOUNDS] * 3
    assert product[0].bound_checks > 0


@pytest.mark.parametrize("policy_name", EDGE_POLICIES)
def test_one_position_tables_equal_the_oracle(policy_name):
    """A view change's and a crossing's table (``PairTable.at``): one
    position paired with every id, including a subscriber with none."""
    policy = EDGE_POLICIES[policy_name]()
    system = DyconitSystem(policy, ChunkPartitioner(), time_source=lambda: 0.0)
    ids = [("chunk", cx, cz) for cx in range(-2, 3) for cz in range(-2, 3)]
    ids += [GLOBAL_DYCONIT, "not-spatial", ("region", 4, 0, 0)]
    for position in (Vec3(8.0, 64.0, 8.0), Vec3(-3.25, 64.0, 17.5), None):
        columns = policy.bounds_columns(system, PairTable.at(ids, position))
        assert columns_as_bounds(columns) == [
            oracle_bounds(policy, system, dyconit_id, position) for dyconit_id in ids
        ]


@pytest.mark.parametrize("span", ["narrow", "wide"])
def test_sweep_maps_subscriber_ids_to_position_rows(span):
    """The sweep maps every slot's subscriber id to its client's position
    row all at once (S37): by a table over the client ids' span when it
    is narrow, one dict lookup per id when it is wide. Either way it is
    the client's row, and -1 for a peer or an unregistered id."""
    from repro.core.manager import _position_rows

    rng = np.random.default_rng(37)
    stride = 1 if span == "narrow" else 10**9
    clients = [int(client) * stride + 5 for client in rng.permutation(40)]
    rows = {client: row for row, client in enumerate(clients)}
    ids = [*clients, -1, -2, max(clients) + 1, min(clients) - 1, 0]
    subscriber_ids = np.array([ids[i] for i in rng.integers(0, len(ids), 2000)], dtype=np.int64)
    assert _position_rows(subscriber_ids, rows).tolist() == [
        rows.get(subscriber_id, -1) for subscriber_id in subscriber_ids.tolist()
    ]
    assert _position_rows(subscriber_ids, {}).tolist() == [-1] * len(subscriber_ids)
