"""Engine checkpoint/restore: the durable restart contract (S20).

A :class:`ServerSnapshot` captures everything a :class:`GameServer`
needs to resume **bit-compatibly** after a crash: the world (entities,
modified chunks, chunk-bucket insertion order), every session's
client-visible state, the engine scalars (tick counter, EWMA signals,
keepalive clock, mob RNG state, queued inbound actions) and the dyconit
middleware's :class:`~repro.core.manager.SystemSnapshot`. The snapshot
is plain picklable data; runtime objects — packet handlers, sockets,
delivery closures — are deliberately absent and re-supplied at restore.

The timing contract
-------------------

``capture_server`` is legal exactly at the **tick barrier**: inside the
control-plane apply step at the top of ``tick_once``, after
``tick_count`` was incremented to K but before any phase of tick K ran.
``restore_server`` rewinds ``tick_count`` to K-1 and schedules the
first tick at delay 0, so tick K re-runs in full on the restored
server — phase for phase, packet for packet — as if the kill never
happened. The checkpoint operation itself is observably read-only
(it writes only to the store's checkpoint table), so the killed run's
prefix is identical to an unkilled run's.

The store contract
------------------

A checkpoint is one pickled blob in the state store's checkpoint table
(:meth:`~repro.backends.base.StateStore.save_checkpoint`): the pair
``(CHECKPOINT_FORMAT, snapshot)``. :func:`load_snapshot` refuses a blob
under any other tag, or under none, rather than guess at it. Restore
wipes the store's *row* tables (:meth:`StateStore.reset`) before
rewriting them from the blob — rows the killed run mutated after the
checkpoint (post-K garbage) can never leak into the resumed run —
while the checkpoint table itself survives the wipe.

``capture_cluster``/``restore_cluster`` extend the same contract to a
:class:`~repro.cluster.facade.ShardedCluster`, captured at the **pump
barrier** (inside the control-plane apply step of pump P, before the
bus drains): in-flight bus messages are part of the snapshot, and each
shard resumes with its own state store.
"""

from __future__ import annotations

import dataclasses
import pickle
from dataclasses import dataclass
from typing import Any

from repro.core.manager import SystemSnapshot
from repro.core.subscription import Subscriber
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.session import PlayerSession
from repro.sim.simulator import Simulation
from repro.world.geometry import ChunkPos, Vec3
from repro.world.world import World

#: Names the snapshot dataclasses' field lists and the pickled layout of
#: the values inside them; bump it whenever one of them (or
#: ``ServerConfig``, which rides inside) gains, loses or reorders a
#: field, or a value type changes how it pickles. A slotted frozen
#: dataclass pickles as a positional value list and un-pickles by
#: zipping it onto the *current* fields, so a blob written under another
#: layout would restore without error and with values in the wrong
#: fields. ``/4``: the geometry types pickle as tuples. ``/5``:
#: ``ServerConfig`` carries ``record_latencies`` and ``merging_enabled``.
#: ``/6``: queued bus records are world events, the handoff messages
#: carry a ``Vec3`` and an ``EntityKind``, and each cluster profile is a
#: ``ClientProfile``. ``/7``: the options no run set are gone —
#: ``ServerConfig`` loses ``tick_interval_ms``, ``keepalive_interval_ms``
#: and ``mob_step_ticks``, ``SessionSnapshot`` its ``link`` and
#: ``faults``, ``ClusterSnapshot`` its ``peer_bounds``, and
#: ``ClientProfile`` is ``(name, handler)``.
CHECKPOINT_FORMAT = "repro-checkpoint/7"

# ----------------------------------------------------------------------
# Snapshot dataclasses (plain picklable data)
# ----------------------------------------------------------------------


@dataclass
class SessionSnapshot:
    """One player session, minus its runtime packet handler."""

    client_id: int
    entity_id: int
    name: str
    view_distance: int
    view_chunks: list[ChunkPos]
    #: (entity id, last sent position) in dict insertion order — the
    #: order rebuilds the viewer index's knower buckets exactly.
    known_entities: list[tuple[int, Vec3]]
    entity_update_times: dict[int, float]
    anchor_chunk: ChunkPos | None
    connected_at: float
    actions_received: int
    packets_sent: int


@dataclass
class WorldSnapshot:
    """World state that cannot be regenerated from the seed."""

    seed: int
    next_entity_id: int
    entity_id_step: int
    #: (id, kind value, position, yaw, pitch, name) in spawn-table order.
    entities: list[tuple[int, str, Vec3, float, float, str]]
    #: Chunk buckets with their exact insertion order — bucket iteration
    #: order feeds entity-snapshot packet order.
    buckets: list[tuple[ChunkPos, list[int]]]
    #: Player-modified chunks: (pos, ``Chunk.edits`` over the generated
    #: base, modified_count). Every chunk's base regenerates
    #: deterministically from the seed.
    chunks: list[tuple[ChunkPos, dict[int, int], int]]


@dataclass
class ServerSnapshot:
    """A full :class:`GameServer` at a tick barrier."""

    sim_now: float
    #: ``tick_count`` as captured at the barrier (tick K incremented,
    #: no phase run). Restore rewinds to K-1 so tick K re-runs.
    tick_count: int
    config: ServerConfig
    partitioner: Any
    world: WorldSnapshot
    sessions: list[SessionSnapshot]
    system: SystemSnapshot
    messages_sent: int
    smoothed_tick_ms: float
    smoothed_bytes_per_s: float
    last_keepalive: float
    next_client_id: int
    mob_ids: list[int]
    mob_rng_state: Any
    #: Actions already queued for the barrier tick. A resume harness
    #: must only re-drive action traffic *strictly after* the barrier
    #: time; traffic at or before it is already in here.
    inbound: list[tuple[int, Any]]


@dataclass
class ShardSnapshot:
    """One cluster shard: its server plus the federation extras."""

    server: ServerSnapshot
    shard_id: int
    ghost_ids: list[int]
    remote_interest: dict[int, list[ChunkPos]]
    peer_registry: dict[int, list[ChunkPos]]
    #: Peers with live Subscriber objects, in registration order.
    peer_ids: list[int]
    handoffs_out: int
    handoffs_in: int
    transfers_out: int
    transfers_in: int
    #: Absolute time of the shard's next scheduled tick (its barrier
    #: tick already ran when the pump captures), or None if stopped.
    next_tick_at: float | None = None


@dataclass
class BusSnapshot:
    """The inter-shard bus, in-flight messages included."""

    queues: dict[tuple[int, int], list[tuple[int, Any]]]
    next_seq: dict[tuple[int, int], int]
    delivered_seq: dict[tuple[int, int], int]
    total_bytes: int
    total_messages: int
    bytes_by_edge: dict[tuple[int, int], int]
    messages_by_kind: dict[str, int]


@dataclass
class ClusterSnapshot:
    """A full :class:`ShardedCluster` at a pump barrier."""

    sim_now: float
    pump_count: int
    shard_count: int
    strip_width: int
    config: ServerConfig
    shards: list[ShardSnapshot]
    bus: BusSnapshot
    next_client_id: int
    shard_by_client: dict[int, int]
    #: client id -> its ``ClientProfile`` with ``handler=None``; the
    #: handler is runtime and re-supplied at restore.
    profiles: dict[int, Any]
    in_transit: dict[int, tuple[int, int]]
    handoffs: int
    handoffs_cancelled: int


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------


def _portable_config(config: ServerConfig) -> ServerConfig:
    """Strip a live store instance out of the config before pickling."""
    spec = config.state_store
    if not isinstance(spec, str):
        spec = "memory"
    return dataclasses.replace(config, state_store=spec)


def _capture_world(world: World) -> WorldSnapshot:
    return WorldSnapshot(
        seed=world.seed,
        next_entity_id=world._next_entity_id,
        entity_id_step=world._entity_id_step,
        entities=[
            (e.entity_id, e.kind.value, e.position, e.yaw, e.pitch, e.name)
            for e in world._entities.values()
        ],
        buckets=[
            (pos, list(bucket))
            for pos, bucket in world._entities_by_chunk.items()
        ],
        chunks=[
            (pos, chunk.edits, chunk.modified_count)
            for pos, chunk in world._chunks.items()
            if chunk.modified_count > 0
        ],
    )


def _capture_session(session: PlayerSession) -> SessionSnapshot:
    return SessionSnapshot(
        client_id=session.client_id,
        entity_id=session.entity_id,
        name=session.name,
        view_distance=session.view_distance,
        view_chunks=list(session.view_chunks),
        known_entities=list(session.known_entities.items()),
        entity_update_times=dict(session.entity_update_times),
        anchor_chunk=session.anchor_chunk,
        connected_at=session.connected_at,
        actions_received=session.actions_received,
        packets_sent=session.packets_sent,
    )


def capture_server(server: GameServer) -> ServerSnapshot:
    """Capture *server* at the tick barrier (see module docstring)."""
    if server.dyconits is None:
        raise ValueError(
            "checkpointing needs the dyconit middleware: a direct-mode "
            "server has no durable state store to restart from"
        )
    if server._commit_buffer:
        raise RuntimeError("capture_server called inside a commit burst")
    if server.transport.pending_packets:
        # I6.cork-drained: a snapshot never carries a pending frame.
        raise RuntimeError("capture_server called while the transport is corked")
    return ServerSnapshot(
        sim_now=server.sim.now,
        tick_count=server.tick_count,
        config=_portable_config(server.config),
        partitioner=server.dyconits.partitioner,
        world=_capture_world(server.world),
        sessions=[
            _capture_session(session)
            for session in server.sessions.values()
        ],
        system=server.dyconits.snapshot(),
        messages_sent=server.messages_sent,
        smoothed_tick_ms=server.smoothed_tick_ms,
        smoothed_bytes_per_s=server._smoothed_bytes_per_s,
        last_keepalive=server._last_keepalive,
        next_client_id=server._next_client_id,
        mob_ids=list(server._mob_ids),
        mob_rng_state=server._mob_rng.getstate(),
        inbound=list(server._inbound),
    )


def capture_cluster(cluster) -> ClusterSnapshot:
    """Capture *cluster* at the pump barrier (see module docstring)."""
    bus = cluster.bus
    shards = []
    for shard in cluster.shards:
        shards.append(
            ShardSnapshot(
                server=capture_server(shard),
                shard_id=shard.shard_id,
                ghost_ids=sorted(shard.ghost_ids),
                remote_interest={
                    owner: list(chunks)
                    for owner, chunks in shard.remote_interest.items()
                },
                peer_registry={
                    peer: list(chunks)
                    for peer, chunks in shard.peer_registry.items()
                },
                peer_ids=list(shard._peer_subscribers),
                handoffs_out=shard.handoffs_out,
                handoffs_in=shard.handoffs_in,
                transfers_out=shard.transfers_out,
                transfers_in=shard.transfers_in,
                next_tick_at=(
                    shard._tick_event.time if shard._tick_event is not None else None
                ),
            )
        )
    return ClusterSnapshot(
        sim_now=cluster.sim.now,
        pump_count=cluster.pump_count,
        shard_count=len(cluster.shards),
        strip_width=cluster.router.strip_width,
        config=_portable_config(cluster.config),
        shards=shards,
        bus=BusSnapshot(
            queues={edge: list(queue) for edge, queue in bus._queues.items()},
            next_seq=dict(bus._next_seq),
            delivered_seq=dict(bus._delivered_seq),
            total_bytes=bus.total_bytes,
            total_messages=bus.total_messages,
            bytes_by_edge=dict(bus.bytes_by_edge),
            messages_by_kind=dict(bus.messages_by_kind),
        ),
        next_client_id=cluster._next_client_id,
        shard_by_client=dict(cluster._shard_by_client),
        profiles={
            cid: dataclasses.replace(profile, handler=None)
            for cid, profile in cluster._profiles.items()
        },
        in_transit=dict(cluster._in_transit),
        handoffs=cluster.handoffs,
        handoffs_cancelled=cluster.handoffs_cancelled,
    )


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------


def _fill_world(world: World, snap: WorldSnapshot) -> None:
    """Rebuild captured world contents into a fresh (or empty) world.

    Must run with no listeners attached — replayed spawns are history,
    not new events, and must never re-enter the broadcast path.
    """
    if world._listeners:
        raise RuntimeError("world must have no listeners during restore")
    for pos, edits, modified in snap.chunks:
        chunk = world.generator.generate(pos)
        chunk.apply_edits(edits)
        chunk.modified_count = modified
        world._chunks[pos] = chunk
    from repro.world.entity import EntityKind

    for entity_id, kind_value, position, yaw, pitch, name in snap.entities:
        entity = world.spawn_entity(
            EntityKind(kind_value), position, name=name, entity_id=entity_id
        )
        entity.yaw = yaw
        entity.pitch = pitch
    # Overwrite the buckets spawn order just built: the captured order
    # is the accumulated insert/cross history, which is what feeds
    # entity-snapshot packet order.
    world._entities_by_chunk = {
        pos: dict.fromkeys(ids) for pos, ids in snap.buckets
    }
    world._next_entity_id = snap.next_entity_id


def _restore_engine_state(
    server: GameServer,
    snap: ServerSnapshot,
    handlers: dict[int, Any],
    extra_subscribers: dict[int, Subscriber] | None = None,
    rerun_barrier_tick: bool = True,
) -> None:
    """Rebuild sessions, transport links, subscribers and the dyconit
    system on a freshly constructed *server* whose world is already
    filled. Shared between the single-server and per-shard paths.

    ``rerun_barrier_tick`` rewinds ``tick_count`` by one so the
    barrier tick that the checkpoint interrupted re-runs (the
    single-server resume path, which reschedules ``_tick`` at delay
    0). A cluster shard's barrier tick already ran before the pump
    captured, so the per-shard path keeps ``tick_count`` verbatim —
    rewinding it there shifts every ``tick_count``-gated phase (mob
    steps, audits, keepalive nonces) one tick late forever.
    """
    missing = [s.client_id for s in snap.sessions if s.client_id not in handlers]
    if missing:
        raise ValueError(f"no packet handler supplied for client ids {missing}")

    server.messages_sent = snap.messages_sent
    server.tick_count = snap.tick_count - 1 if rerun_barrier_tick else snap.tick_count
    server.smoothed_tick_ms = snap.smoothed_tick_ms
    server._smoothed_bytes_per_s = snap.smoothed_bytes_per_s
    server._last_keepalive = snap.last_keepalive
    server._next_client_id = snap.next_client_id
    server._mob_ids = list(snap.mob_ids)
    server._mob_rng.setstate(snap.mob_rng_state)
    server._inbound = list(snap.inbound)

    subscribers: dict[int, Subscriber] = dict(extra_subscribers or {})
    for s in snap.sessions:
        session = PlayerSession(
            client_id=s.client_id,
            entity_id=s.entity_id,
            name=s.name,
            view_distance=s.view_distance,
            anchor_chunk=s.anchor_chunk,
            connected_at=s.connected_at,
            actions_received=s.actions_received,
            packets_sent=s.packets_sent,
        )
        session.view_chunks = set(s.view_chunks)
        session.entity_update_times = dict(s.entity_update_times)
        server.sessions[s.client_id] = session
        server._client_by_entity[s.entity_id] = s.client_id
        # Bind before filling: each insert mirrors into the knower
        # buckets, rebuilding their per-entity order exactly.
        session.known_entities.bind(session, server.viewers)
        for entity_id, position in s.known_entities:
            session.known_entities[entity_id] = position
        server.viewers.add_view(session, s.view_chunks)
        # Link *RNG state* is not captured: a restored connection is a
        # reconnect, and jitter/fault draws restart like one.
        server.transport.connect(s.client_id, handlers[s.client_id])
        subscribers[s.client_id] = Subscriber(
            subscriber_id=s.client_id,
            deliver=server._make_delivery_handler(session),
            position_provider=server._make_position_provider(s.entity_id),
        )
    server.dyconits.restore(snap.system, subscribers)


def restore_server(
    snap: ServerSnapshot,
    *,
    state_store,
    handlers: dict[int, Any],
    telemetry=None,
    start: bool = True,
) -> GameServer:
    """Attach a fresh server to *state_store* and resume from *snap*.

    ``handlers`` re-supplies each client's packet handler (keyed by
    client id). With ``start=True`` the barrier tick is scheduled at
    delay 0, so ``sim.run_until(...)`` resumes exactly at the killed
    run's next phase.
    """
    sim = Simulation(start=snap.sim_now)
    world = World(
        seed=snap.world.seed,
        entity_id_step=snap.world.entity_id_step,
    )
    _fill_world(world, snap.world)
    config = dataclasses.replace(snap.config, state_store=state_store)
    server = GameServer(
        sim,
        world=world,
        config=config,
        policy=snap.system.policy,
        partitioner=snap.partitioner,
        telemetry=telemetry,
    )
    _restore_engine_state(server, snap, handlers)
    if start:
        server.start(schedule_ticks=False)
        server._tick_event = sim.schedule(0, server._tick)
    return server


def restore_cluster(
    snap: ClusterSnapshot,
    *,
    state_stores,
    handlers: dict[int, Any],
    telemetry=None,
    start: bool = True,
):
    """Attach a fresh cluster to per-shard *state_stores* and resume.

    ``state_stores`` is one store (spec or instance) per shard, in shard
    order. Peer delivery closures, profile handlers and the pump
    schedule are rebuilt; the barrier pump re-runs at delay 0 and drains
    the snapshot's in-flight bus messages exactly as the killed run
    would have.
    """
    from repro.cluster.facade import ShardedCluster
    from repro.cluster.shard import peer_subscriber_id

    if len(state_stores) != snap.shard_count:
        raise ValueError(
            f"cluster has {snap.shard_count} shards but "
            f"{len(state_stores)} state stores were supplied"
        )
    sim = Simulation(start=snap.sim_now)
    policies = iter([s.server.system.policy for s in snap.shards])
    partitioners = iter([s.server.partitioner for s in snap.shards])
    cluster = ShardedCluster(
        sim,
        shards=snap.shard_count,
        strip_width=snap.strip_width,
        config=snap.config,
        policy_factory=lambda: next(policies),
        partitioner_factory=lambda: next(partitioners),
        telemetry=telemetry,
        state_stores=list(state_stores),
    )
    for shard, shard_snap in zip(cluster.shards, snap.shards):
        # Federation bookkeeping first: pre-populated remote interest is
        # what keeps the viewer-index rebuild below from re-posting
        # PeerSubscribe messages for chunks we never stopped watching.
        shard.ghost_ids = set(shard_snap.ghost_ids)
        shard.remote_interest = {
            owner: dict.fromkeys(chunks)
            for owner, chunks in shard_snap.remote_interest.items()
        }
        shard.peer_registry = {
            peer: dict.fromkeys(chunks)
            for peer, chunks in shard_snap.peer_registry.items()
        }
        shard.handoffs_out = shard_snap.handoffs_out
        shard.handoffs_in = shard_snap.handoffs_in
        shard.transfers_out = shard_snap.transfers_out
        shard.transfers_in = shard_snap.transfers_in
        peers: dict[int, Subscriber] = {}
        for peer_shard in shard_snap.peer_ids:
            subscriber = Subscriber(
                subscriber_id=peer_subscriber_id(peer_shard),
                deliver=shard._make_peer_delivery(peer_shard),
                position_provider=None,
                kind="peer",
            )
            shard._peer_subscribers[peer_shard] = subscriber
            peers[subscriber.subscriber_id] = subscriber
        world_listeners, shard.world._listeners = shard.world._listeners, []
        try:
            _fill_world(shard.world, shard_snap.server.world)
        finally:
            shard.world._listeners = world_listeners
        _restore_engine_state(
            shard,
            shard_snap.server,
            handlers,
            extra_subscribers=peers,
            rerun_barrier_tick=False,
        )

    bus = cluster.bus
    bus._queues = {edge: list(queue) for edge, queue in snap.bus.queues.items()}
    bus._next_seq = dict(snap.bus.next_seq)
    bus._delivered_seq = dict(snap.bus.delivered_seq)
    bus.total_bytes = snap.bus.total_bytes
    bus.total_messages = snap.bus.total_messages
    bus.bytes_by_edge = dict(snap.bus.bytes_by_edge)
    bus.messages_by_kind = dict(snap.bus.messages_by_kind)

    cluster._next_client_id = snap.next_client_id
    cluster._shard_by_client = dict(snap.shard_by_client)
    cluster._profiles = {
        cid: dataclasses.replace(profile, handler=handlers.get(cid))
        for cid, profile in snap.profiles.items()
    }
    cluster._in_transit = dict(snap.in_transit)
    cluster.handoffs = snap.handoffs
    cluster.handoffs_cancelled = snap.handoffs_cancelled
    cluster.pump_count = snap.pump_count - 1

    if start:
        # The barrier pump's shard ticks already ran when the snapshot
        # was captured; resume each shard at its recorded next tick time
        # and re-run the pump itself at delay 0.
        cluster._running = True
        for shard, shard_snap in zip(cluster.shards, snap.shards):
            shard.start(schedule_ticks=False)
            if shard_snap.next_tick_at is not None:
                shard._tick_event = sim.schedule_at(
                    shard_snap.next_tick_at, shard._tick
                )
        cluster._pump_event = sim.schedule(0, cluster._pump)
    return cluster


# ----------------------------------------------------------------------
# Store-backed convenience wrappers (the control-plane path)
# ----------------------------------------------------------------------


def checkpoint_target(target, key: str) -> bytes:
    """Capture *target* (server or cluster) into its state store.

    The blob lands in the dyconit store's checkpoint table — shard 0's
    store for a cluster — and survives :meth:`StateStore.reset`.
    Returns the pickled ``(CHECKPOINT_FORMAT, snapshot)`` blob.
    """
    if hasattr(target, "shards"):
        snap = capture_cluster(target)
        store = target.shards[0].dyconits.state_store
    else:
        snap = capture_server(target)
        store = target.dyconits.state_store
    blob = pickle.dumps((CHECKPOINT_FORMAT, snap), protocol=4)
    store.save_checkpoint(key, blob)
    return blob


def load_snapshot(store, key: str):
    """Load a :class:`ServerSnapshot`/:class:`ClusterSnapshot` blob.

    Raises ``ValueError`` for a blob not written as
    ``(CHECKPOINT_FORMAT, snapshot)`` — another version's, or one that
    predates the tag — including one whose values no longer unpickle
    under this code's classes.
    """
    blob = store.load_checkpoint(key)
    if blob is None:
        raise KeyError(f"no checkpoint {key!r} in store {store.name!r}")
    try:
        loaded = pickle.loads(blob)
    except Exception as error:
        raise ValueError(
            f"checkpoint {key!r} in store {store.name!r} does not unpickle "
            f"({type(error).__name__}: {error}), expected format "
            f"{CHECKPOINT_FORMAT!r}; it was written by another version of "
            "this code and cannot be restored by this one"
        ) from error
    tagged = isinstance(loaded, tuple) and len(loaded) == 2
    if not tagged or loaded[0] != CHECKPOINT_FORMAT:
        found = repr(loaded[0]) if tagged else f"an untagged {type(loaded).__name__}"
        raise ValueError(
            f"checkpoint {key!r} in store {store.name!r} has format {found}, "
            f"expected {CHECKPOINT_FORMAT!r}; it was written by another "
            "version of this code and cannot be restored by this one"
        )
    return loaded[1]


def restore_server_from_store(
    store, key: str, *, handlers: dict[int, Any], telemetry=None, start: bool = True
) -> GameServer:
    """One-call crash recovery: load *key* from *store* and reattach."""
    snap = load_snapshot(store, key)
    if not isinstance(snap, ServerSnapshot):
        raise TypeError(
            f"checkpoint {key!r} holds a {type(snap).__name__}, not a "
            "ServerSnapshot; use restore_cluster for cluster checkpoints"
        )
    return restore_server(
        snap, state_store=store, handlers=handlers, telemetry=telemetry, start=start
    )
