"""One shard: a full game server that federates with its neighbours.

A :class:`ShardServer` *is* a :class:`~repro.server.engine.GameServer` —
same tick loop, interest manager, codec, transport, dyconit system — plus
the four cluster behaviours:

* **Peer publication.** Other shards subscribe to this shard's chunk
  dyconits as ``kind="peer"`` subscribers (negative subscriber ids, no
  position). Flushes to a peer are posted on the bus as records (the
  flushed world events themselves, a move as an enriched ``GhostMove``)
  instead of being encoded into packets; the dyconit middleware itself
  neither knows nor cares that the subscriber is a server.
* **Ghost replicas.** Updates received from a neighbour are applied to
  this shard's *own world* as ghost entities/blocks. Local clients then
  see them through the completely unchanged broadcast path, so remote
  state experiences exactly two dyconit hops: the publisher's peer bounds
  (``Bounds.ZERO``) and the local client's bounds.
* **Remote interest.** The viewer index reports when a chunk gains its
  first or loses its last viewing session; for chunks owned by a
  neighbour this drives PeerSubscribe/PeerUnsubscribe control messages,
  the cross-shard mirror of per-client interest management (invariant
  I8 checks the two registries agree at every barrier).
* **Ownership transfer.** An authoritative entity that crosses into a
  neighbour's region leaves this shard — sessions via the handoff
  protocol (disconnect here, reconnect there under the same client and
  entity ids), mobs via a plain entity transfer.

Echo safety is structural, not flag-based: a peer only subscribes to
chunks the publisher *owns*, ghost mutations live in chunks the applier
does *not* own, and ghost records are filtered against both ownership
and the ghost set before posting — so a remote update can never be
re-published to the bus.
"""

from __future__ import annotations

from repro.cluster.bus import InterShardBus, Segment
from repro.cluster.messages import (
    EntityTransfer,
    GhostMove,
    PeerSnapshot,
    PeerSubscribe,
    PeerUnsubscribe,
    PeerUpdates,
    SessionHandoff,
    ShardMessage,
)
from repro.cluster.router import ShardRouter
from repro.core.bounds import Bounds
from repro.core.partition import GLOBAL_DYCONIT
from repro.core.subscription import Subscriber
from repro.server.engine import GameServer
from repro.server.viewindex import ViewerIndex
from repro.world.entity import EntityKind
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntityMoveEvent,
    EntitySpawnEvent,
    WorldEvent,
)
from repro.world.geometry import ChunkPos, Vec3
from repro.world.world import World


#: Bus messages that only apply ghost records; a round's commit batch
#: runs through them unflushed.
_RECORD_BATCHES = (PeerUpdates, PeerSnapshot)


def peer_subscriber_id(shard_id: int) -> int:
    """Subscriber id a peer shard uses inside a publisher's dyconit
    system. Negative by convention: client ids are positive, so the two
    populations can share one registry without collisions."""
    return -(shard_id + 1)


def build_shard(
    sim,
    shard_id: int,
    router: ShardRouter,
    bus,
    config,
    policy_factory=None,
    partitioner_factory=None,
    telemetry=None,
) -> "ShardServer":
    """Shard ``shard_id`` of the cluster ``router`` partitions, on its own
    :class:`World`: the same terrain seed everywhere, entity ids strided
    by shard so no two shards ever mint the same id."""
    world = World(
        seed=config.seed,
        entity_id_start=shard_id + 1,
        entity_id_step=router.shards,
    )
    return ShardServer(
        sim,
        shard_id=shard_id,
        router=router,
        bus=bus,
        world=world,
        config=config,
        policy=policy_factory() if policy_factory is not None else None,
        partitioner=partitioner_factory() if partitioner_factory is not None else None,
        telemetry=telemetry,
    )


class _ClusterViewerIndex(ViewerIndex):
    """Viewer index that reports chunk occupancy edge transitions.

    ``add_view``/``remove_view`` are the *only* places a session's view
    set changes (join, refresh, leave all funnel through them), so
    hooking the 0→1 and 1→0 transitions here gives the shard an exact,
    incrementally-maintained "chunks any of my clients can see" set —
    the driver for cross-shard interest.
    """

    def __init__(self, shard: "ShardServer") -> None:
        super().__init__()
        self._shard = shard

    def add_view(self, session, chunks) -> None:
        chunks = list(chunks)
        fresh = [c for c in chunks if c not in self._viewers_by_chunk]
        super().add_view(session, chunks)
        for chunk in fresh:
            self._shard._on_chunk_first_viewed(chunk)

    def remove_view(self, session, chunks) -> None:
        chunks = list(chunks)
        present = [c for c in chunks if c in self._viewers_by_chunk]
        super().remove_view(session, chunks)
        for chunk in present:
            if chunk not in self._viewers_by_chunk:
                self._shard._on_chunk_last_viewed(chunk)


class ShardServer(GameServer):
    """A game server owning one shard of the cluster's chunk space."""

    def __init__(
        self,
        sim,
        shard_id: int,
        router: ShardRouter,
        bus: InterShardBus,
        **server_kwargs,
    ) -> None:
        super().__init__(sim, **server_kwargs)
        self.shard_id = shard_id
        self.router = router
        self.bus = bus
        #: Back-reference set by the facade; handoff bookkeeping lives there.
        self.cluster = None
        #: Replicas of entities another shard owns, present in our world.
        self.ghost_ids: set[int] = set()
        #: Subscriber side: owner shard -> chunks we are subscribed to
        #: (dict-as-ordered-set; insertion order is simulation history).
        self.remote_interest: dict[int, dict[ChunkPos, None]] = {}
        #: Publisher side: peer shard -> chunks it subscribed from us.
        self.peer_registry: dict[int, dict[ChunkPos, None]] = {}
        self._peer_subscribers: dict[int, Subscriber] = {}
        #: True while a remote record is being applied to our world, so
        #: the resulting events never trigger transfer/correction logic.
        self._applying_remote = False
        #: client id -> the profile of a session arriving in the round
        #: about to be delivered, staged by the cluster at ship time.
        self._staged_profiles: dict = {}
        self.handoffs_out = 0
        self.handoffs_in = 0
        self.transfers_out = 0
        self.transfers_in = 0
        # Replace the plain index *before* any session exists; all later
        # bind/add_view calls go through the transition-aware subclass.
        self.viewers = _ClusterViewerIndex(self)
        bus.attach(shard_id)

    # ------------------------------------------------------------------
    # Peer mesh (publisher side)
    # ------------------------------------------------------------------

    def ensure_peers(self, num_shards: int) -> None:
        """Register every other shard of the cluster as a peer, in shard
        order: the eager full mesh at cluster start. The global dyconit
        (chat and other world-wide updates) must flow between all shards
        even when no client is near a border; chunk dyconits are added
        lazily by PeerSubscribe as interest appears."""
        for peer_shard in range(num_shards):
            if peer_shard != self.shard_id:
                self.ensure_peer(peer_shard)

    def ensure_peer(self, peer_shard: int) -> Subscriber:
        """Register ``peer_shard`` as a subscriber of this shard (its
        global-dyconit subscription included), once."""
        subscriber = self._peer_subscribers.get(peer_shard)
        if subscriber is None:
            subscriber = Subscriber(
                subscriber_id=peer_subscriber_id(peer_shard),
                deliver=self._make_peer_delivery(peer_shard),
                position_provider=None,
                kind="peer",
            )
            self._peer_subscribers[peer_shard] = subscriber
            self.peer_registry.setdefault(peer_shard, {})
            self.dyconits.register_subscriber(subscriber)
            self.dyconits.subscribe(GLOBAL_DYCONIT, subscriber, bounds=Bounds.ZERO)
        return subscriber

    def _make_peer_delivery(self, peer_shard: int):
        def deliver(segments) -> None:
            # One PeerUpdates per segment: the bus sees what it always saw.
            for __, updates in segments:
                records = []
                for update in updates:
                    record = self._ghost_record(update)
                    if record is not None:
                        records.append(record)
                if records:
                    self.bus.post(
                        self.shard_id, peer_shard, PeerUpdates(records=tuple(records))
                    )

        return deliver

    def _ghost_record(self, event: WorldEvent):
        """The record peers receive for one flushed world event, or None:
        the event itself, but a move as a :class:`GhostMove`.

        The ownership filter is the structural echo guard: only events in
        chunks *we own*, about entities *we own*, are published. Merged
        dyconits can span owned and foreign chunks, so the filter runs
        per event, not per dyconit.
        """
        if isinstance(event, ChatEvent):
            return None if event.sender_id in self.ghost_ids else event
        chunk = event.chunk_pos
        if chunk is None or self.router.shard_for_chunk(chunk) != self.shard_id:
            return None
        if isinstance(event, EntityMoveEvent):
            if event.entity_id in self.ghost_ids:
                return None
            entity = self.world.get_entity(event.entity_id)
            return GhostMove(
                entity_id=event.entity_id,
                x=event.new_position.x,
                y=event.new_position.y,
                z=event.new_position.z,
                yaw=event.yaw,
                pitch=event.pitch,
                time=event.time,
                kind_value=entity.kind.value if entity is not None else "",
                name=entity.name if entity is not None else "",
            )
        if isinstance(event, (EntitySpawnEvent, EntityDespawnEvent)):
            return None if event.entity_id in self.ghost_ids else event
        if isinstance(event, BlockChangeEvent):
            return event
        return None

    # ------------------------------------------------------------------
    # Remote interest (subscriber side)
    # ------------------------------------------------------------------

    def _on_chunk_first_viewed(self, chunk: ChunkPos) -> None:
        owner = self.router.shard_for_chunk(chunk)
        if owner == self.shard_id:
            return
        interest = self.remote_interest.setdefault(owner, {})
        if chunk in interest:
            return
        interest[chunk] = None
        self.bus.post(
            self.shard_id, owner, PeerSubscribe(chunk=chunk, bounds=Bounds.ZERO)
        )

    def _on_chunk_last_viewed(self, chunk: ChunkPos) -> None:
        owner = self.router.shard_for_chunk(chunk)
        if owner == self.shard_id:
            return
        interest = self.remote_interest.get(owner)
        if interest is None or chunk not in interest:
            return
        del interest[chunk]
        self.bus.post(self.shard_id, owner, PeerUnsubscribe(chunk=chunk))
        # Ghosts stranded in a chunk nobody views any more would never be
        # updated again; collect them now (sorted for determinism).
        for entity in sorted(
            self.world.entities_in_chunk(chunk), key=lambda e: e.entity_id
        ):
            if entity.entity_id in self.ghost_ids:
                self.world.despawn_entity(entity.entity_id)
                self.ghost_ids.discard(entity.entity_id)

    # ------------------------------------------------------------------
    # Bus inbound
    # ------------------------------------------------------------------

    def deliver_round(self, segment: Segment) -> int:
        """Apply this shard's part of one bus round as one unit; returns
        the messages applied.

        ``segment`` is ``(src, messages)`` per edge in the round's order.
        The transport is corked over the whole round, so each client gets
        one frame, and one commit batch spans every message: the buffer
        is flushed before each message that is not a record batch
        (subscribe, unsubscribe, handoff, transfer all change interest,
        existence or the bus), and the record batches flush themselves
        before spawns, despawns and chat — so the ``commit_to`` sequence
        and everything it is interleaved with are the per-message path's.
        """
        applied = 0
        self.transport.cork()
        try:
            with self._commit_batching():
                for src, messages in segment:
                    for message in messages:
                        if not isinstance(message, _RECORD_BATCHES):
                            self._flush_commits()
                        self._on_bus_message(src, message)
                        applied += 1
        finally:
            # Not _egress_frames: a bus round is not a tick phase.
            self.codec.clear_moves()
            self.transport.uncork()
        return applied

    def _on_bus_message(self, src: int, message: ShardMessage) -> None:
        if isinstance(message, PeerSubscribe):
            self._handle_peer_subscribe(src, message)
        elif isinstance(message, PeerUnsubscribe):
            self._handle_peer_unsubscribe(src, message)
        elif isinstance(message, PeerSnapshot):
            if message.chunk in self.remote_interest.get(src, {}):
                self._apply_records(src, message.records)
        elif isinstance(message, PeerUpdates):
            self._apply_records(src, message.records)
        elif isinstance(message, SessionHandoff):
            self._adopt_session(src, message)
        elif isinstance(message, EntityTransfer):
            self._adopt_entity(src, message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown bus message {type(message).__name__}")
        # Bus rounds run between ticks, outside the egress scope that
        # clears the codec's move memo: none is left at a pump barrier.
        self.codec.clear_moves()

    def _handle_peer_subscribe(self, src: int, message: PeerSubscribe) -> None:
        subscriber = self.ensure_peer(src)
        registry = self.peer_registry[src]
        if message.chunk in registry:
            return
        registry[message.chunk] = None
        dyconit_id = self.dyconits.partitioner.dyconit_for_chunk(message.chunk)
        self.dyconits.subscribe(dyconit_id, subscriber, bounds=message.bounds)
        # Seed the subscriber with the chunk's current population — the
        # dyconit stream only carries deltas from this point on.
        records = tuple(
            EntitySpawnEvent(
                time=self.world.time,
                entity_id=entity.entity_id,
                kind=entity.kind,
                position=entity.position,
                name=entity.name,
            )
            for entity in sorted(
                self.world.entities_in_chunk(message.chunk), key=lambda e: e.entity_id
            )
            if entity.entity_id not in self.ghost_ids
        )
        self.bus.post(
            self.shard_id, src, PeerSnapshot(chunk=message.chunk, records=records)
        )

    def _handle_peer_unsubscribe(self, src: int, message: PeerUnsubscribe) -> None:
        registry = self.peer_registry.get(src)
        if registry is None or message.chunk not in registry:
            return
        del registry[message.chunk]
        partitioner = self.dyconits.partitioner
        dyconit_id = partitioner.dyconit_for_chunk(message.chunk)
        # Under coarse partitioners several chunks share one dyconit;
        # keep the subscription while any registered chunk still maps to it.
        still_needed = any(
            partitioner.dyconit_for_chunk(chunk) == dyconit_id for chunk in registry
        )
        if not still_needed:
            self.dyconits.unsubscribe(
                dyconit_id, peer_subscriber_id(src), flush_pending=False
            )

    # ------------------------------------------------------------------
    # Ghost application (subscriber side)
    # ------------------------------------------------------------------

    def _apply_records(self, src: int, records: tuple) -> None:
        self._applying_remote = True
        try:
            # Ghost application is the cluster's second commit burst (the
            # first is the local action loop): every applied move/block
            # re-enters `_on_world_event` and commits to the local
            # dyconits, so batch them too. `_apply_record` flushes at the
            # points where deferred delivery could observe a different
            # world (spawns/despawns) or reorder direct sends (chat).
            with self._commit_batching():
                for record in records:
                    self._apply_record(src, record)
        finally:
            self._applying_remote = False

    def _is_local_authority(self, entity_id: int) -> bool:
        return (
            self.world.get_entity(entity_id) is not None
            and entity_id not in self.ghost_ids
        )

    def _apply_record(self, src: int, record) -> None:
        if isinstance(record, ChatEvent):
            # Chat is global and unowned; re-emitting it into our world
            # would publish it back to every peer. Broadcast it straight
            # to the local sessions instead (legacy chat is an unbounded
            # global broadcast, so skipping the local dyconit hop matches
            # it). Direct sends bypass the commit buffer: flush first so
            # the per-session packet order matches the unbatched path.
            if self._commit_buffer:
                self._flush_commits()
            self._broadcast_direct(record, None)
            return
        if isinstance(record, BlockChangeEvent):
            self.world.set_block(record.pos, record.new_block)
            return
        entity_id = record.entity_id
        if self._is_local_authority(entity_id):
            # A correction/flush raced an ownership transfer we already
            # completed; authority always wins over ghost bookkeeping.
            return
        if (
            isinstance(record, (EntitySpawnEvent, EntityDespawnEvent))
            and self._commit_buffer
        ):
            # Pre-mutation flush: a despawn applied here changes what the
            # codec sees for the entity's *already-buffered* moves (an
            # absent entity drops the packet), so deliver them against
            # the world the unbatched path would have seen.
            self._flush_commits()
        if isinstance(record, EntitySpawnEvent):
            position = record.position
            if entity_id in self.ghost_ids:
                self.world.move_entity(entity_id, position)
            elif position.to_chunk_pos() in self.remote_interest.get(src, {}):
                self.world.spawn_entity(
                    record.kind,
                    position,
                    name=record.name,
                    entity_id=entity_id,
                )
                self.ghost_ids.add(entity_id)
        elif isinstance(record, GhostMove):
            position = Vec3(record.x, record.y, record.z)
            if entity_id in self.ghost_ids:
                self.world.move_entity(entity_id, position, record.yaw, record.pitch)
            elif (
                record.spawnable
                and position.to_chunk_pos() in self.remote_interest.get(src, {})
            ):
                # First sight mid-flight: the entity entered our interest
                # between snapshot and now; materialize it from the
                # enriched move.
                self.world.spawn_entity(
                    EntityKind(record.kind_value),
                    position,
                    name=record.name,
                    entity_id=entity_id,
                )
                self.ghost_ids.add(entity_id)
        elif isinstance(record, EntityDespawnEvent):
            if entity_id in self.ghost_ids:
                self.world.despawn_entity(entity_id)
                self.ghost_ids.discard(entity_id)

    # ------------------------------------------------------------------
    # Event hook: corrections + ownership transfer
    # ------------------------------------------------------------------

    def _on_world_event(self, event: WorldEvent) -> None:
        # Interest corrections must be posted *before* the event is
        # committed: a despawn correction racing the (possibly bounded)
        # dyconit flush of the same crossing must arrive first on the
        # FIFO edge.
        if (
            isinstance(event, EntityMoveEvent)
            and not self._applying_remote
            and event.entity_id not in self.ghost_ids
        ):
            old_chunk = event.old_position.to_chunk_pos()
            new_chunk = event.new_position.to_chunk_pos()
            if old_chunk != new_chunk:
                # Corrections ride the same FIFO bus edge as dyconit
                # flushes; drain the commit buffer first so records
                # already committed keep their pre-correction position.
                if self._commit_buffer:
                    self._flush_commits()
                self._peer_crossing_corrections(event, old_chunk, new_chunk)
        super()._on_world_event(event)
        if self._applying_remote or not isinstance(event, EntityMoveEvent):
            return
        entity_id = event.entity_id
        if entity_id in self.ghost_ids:
            return
        new_chunk = event.new_position.to_chunk_pos()
        owner = self.router.shard_for_chunk(new_chunk)
        if owner != self.shard_id:
            # Emigration despawns the entity and posts bus messages; the
            # buffered commits (including this very move) must be
            # delivered while the entity still exists and before the
            # transfer appears on the bus.
            if self._commit_buffer:
                self._flush_commits()
            self._emigrate(entity_id, owner, event)

    def _peer_crossing_corrections(
        self, event: EntityMoveEvent, old_chunk: ChunkPos, new_chunk: ChunkPos
    ) -> None:
        """Cross-shard mirror of ``InterestManager.on_entity_crossed``.

        Dyconits route an event to its *new* chunk, so a peer subscribed
        to only one side of a crossing would silently gain a stale ghost
        (crossed out) or miss the entity entirely (crossed in). Exactly
        like the per-client interest manager, the publisher fixes both
        edges with direct spawn/despawn records outside the bounds
        machinery.
        """
        entity = self.world.get_entity(event.entity_id)
        if entity is None:
            return
        for peer_shard in sorted(self.peer_registry):
            registry = self.peer_registry[peer_shard]
            old_in = old_chunk in registry
            new_in = new_chunk in registry
            if old_in == new_in:
                continue
            if new_in:
                record = EntitySpawnEvent(
                    time=event.time,
                    entity_id=event.entity_id,
                    kind=entity.kind,
                    position=event.new_position,
                    name=entity.name,
                )
            else:
                record = EntityDespawnEvent(
                    time=event.time,
                    entity_id=event.entity_id,
                    position=event.new_position,
                )
            self.bus.post(self.shard_id, peer_shard, PeerUpdates(records=(record,)))

    # ------------------------------------------------------------------
    # Ownership transfer
    # ------------------------------------------------------------------

    def _emigrate(self, entity_id: int, owner: int, event: EntityMoveEvent) -> None:
        client_id = self._client_by_entity.get(entity_id)
        if client_id is not None:
            session = self.sessions.get(client_id)
            if session is None:
                return
            entity = self.world.get_entity(entity_id)
            yaw = entity.yaw if entity is not None else 0.0
            pitch = entity.pitch if entity is not None else 0.0
            self.handoffs_out += 1
            if self.cluster is not None:
                self.cluster.on_handoff_started(client_id, self.shard_id, owner)
            # Full disconnect: pending dyconit updates are dropped (the
            # target resyncs the view from scratch), the avatar despawns
            # for local viewers, and the transport link closes.
            self.disconnect(client_id)
            self.bus.post(
                self.shard_id,
                owner,
                SessionHandoff(
                    client_id=client_id,
                    entity_id=entity_id,
                    position=event.new_position,
                    yaw=yaw,
                    pitch=pitch,
                ),
            )
            return
        entity = self.world.get_entity(entity_id)
        if entity is None:
            return
        self.transfers_out += 1
        if entity_id in self._mob_ids:
            self._mob_ids.remove(entity_id)
        self.world.despawn_entity(entity_id)
        self.bus.post(
            self.shard_id,
            owner,
            EntityTransfer(
                entity_id=entity_id,
                kind=entity.kind,
                position=event.new_position,
                name=entity.name,
            ),
        )

    def stage_handoff(self, client_id: int, profile) -> None:
        """Hold the :class:`~repro.cluster.facade.ClientProfile` a
        :class:`SessionHandoff` in the coming round will adopt."""
        self._staged_profiles[client_id] = profile

    def _adopt_session(self, src: int, message: SessionHandoff) -> None:
        profile = self._staged_profiles.pop(message.client_id, None)
        if profile is None:
            # The client disconnected while its session was in flight —
            # churn racing a handoff — so no profile was staged. The
            # avatar already despawned at the source; dropping the
            # message completes the disconnect.
            return
        if message.entity_id in self.ghost_ids:
            # Our ghost of the avatar is superseded by the authoritative
            # spawn below (the source's despawn correction usually got
            # here first; this handles loose peer bounds).
            self.world.despawn_entity(message.entity_id)
            self.ghost_ids.discard(message.entity_id)
        self.handoffs_in += 1
        self.connect(
            profile.name,
            profile.handler,
            position=message.position,
            client_id=message.client_id,
            entity_id=message.entity_id,
        )
        self.cluster.on_handoff_completed(message.client_id, self.shard_id)

    def _adopt_entity(self, src: int, message: EntityTransfer) -> None:
        if message.entity_id in self.ghost_ids:
            self.world.despawn_entity(message.entity_id)
            self.ghost_ids.discard(message.entity_id)
        if self.world.get_entity(message.entity_id) is not None:
            return  # defensive: already adopted
        self.transfers_in += 1
        self.world.spawn_entity(
            message.kind,
            message.position,
            name=message.name,
            entity_id=message.entity_id,
        )
        # Transferred entities are ambient mobs; step them here from now on.
        self._mob_ids.append(message.entity_id)

    # ------------------------------------------------------------------
    # Ambient mobs: same seeded draw on every shard, keep what we own
    # ------------------------------------------------------------------

    def _spawn_mobs(self) -> None:
        """Every shard draws the *same* mob sequence from the same seeded
        stream and keeps only the mobs landing in its own region — no
        coordination, and the 1-shard cluster keeps the legacy sequence
        (and ids) exactly."""
        kinds = (EntityKind.COW, EntityKind.SHEEP, EntityKind.ZOMBIE)
        for index in range(self.config.mob_count):
            x = self._mob_rng.uniform(-40.0, 40.0)
            z = self._mob_rng.uniform(-40.0, 40.0)
            position = self.world.surface_position(x, z)
            if self.router.shard_for_position(position) != self.shard_id:
                continue
            kind = kinds[index % len(kinds)]
            mob = self.world.spawn_entity(kind, position)
            self._mob_ids.append(mob.entity_id)
