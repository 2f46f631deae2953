"""The game server engine.

Runs the 20 Hz tick loop over the authoritative world, processes inbound
player actions, and broadcasts world events through one of two paths:

* ``direct_mode=True`` — vanilla: each event is encoded and sent to every
  viewing session immediately;
* ``direct_mode=False`` — events are committed to the dyconit middleware,
  which queues, merges, and flushes per the installed policy.

Either way a packet leaves through :meth:`GameServer.send_packets` →
``Transport.send``; inside a tick the transport is corked, so each client
is sent one frame per tick, before the tick is priced.

Every tick's work is folded into a :class:`TickWorkload` and priced by
the :class:`TickCostModel`; when the priced duration exceeds the tick
interval the next tick is delayed accordingly, so an overloaded server
visibly drops below 20 Hz — exactly the saturation behaviour the paper's
capacity experiment measures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable, Sequence

from repro.core.invariants import InvariantAuditor, InvariantViolationError
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner, DyconitPartitioner
from repro.core.policy import LoadSignals, Policy
from repro.core.subscription import Subscriber
from repro.metrics.collector import MetricsRegistry
from repro.net.protocol import (
    JoinGamePacket,
    KeepAlivePacket,
    Packet,
    PlayerActionPacket,
)
from repro.net.transport import Transport
from repro.sim.rng import derive_rng
from repro.sim.simulator import Simulation
from repro.telemetry.hub import NULL_TELEMETRY, Telemetry
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityMoveEvent,
    WorldEvent,
)
from repro.world.geometry import Vec3
from repro.world.world import World
from repro.server.codec import SessionCodec
from repro.server.config import (
    KEEPALIVE_INTERVAL_MS,
    MOB_STEP_TICKS,
    TICK_INTERVAL_MS,
    ServerConfig,
)
from repro.server.costmodel import TickCostModel, TickWorkload
from repro.server.interest import InterestManager
from repro.server.session import PlayerSession
from repro.server.viewindex import ViewerIndex

#: EWMA smoothing factor for tick duration (signal the adaptive policy uses).
TICK_EWMA_ALPHA = 0.2

#: Fallback audit period applied when ``ServerConfig.audit_every_n_ticks``
#: is 0. The test suite's autouse fixture sets this from the
#: ``REPRO_AUDIT_EVERY_N_TICKS`` environment variable so the *entire*
#: existing suite can run under checked mode without touching each test.
AUDIT_DEFAULT_EVERY_N_TICKS = 0


class GameServer:
    """A Minecraft-like server instance inside the simulation."""

    def __init__(
        self,
        sim: Simulation,
        world: World | None = None,
        config: ServerConfig | None = None,
        policy: Policy | None = None,
        partitioner: DyconitPartitioner | None = None,
        direct_mode: bool = False,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else ServerConfig()
        self.world = world if world is not None else World(seed=self.config.seed)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            # Stamp spans/events with this server's simulated clock.
            self.telemetry.set_time_source(lambda: sim.now)
        self.transport = Transport(
            sim,
            self.config.link,
            seed=self.config.seed,
            synchronous_delivery=self.config.synchronous_delivery,
            telemetry=self.telemetry,
            faults=self.config.faults,
        )
        self.transport.record_latencies = self.config.record_latencies
        self.codec = SessionCodec(self.world)
        self.interest = InterestManager(self)
        #: Reverse chunk→viewers / entity→knowers maps, maintained in
        #: O(view diff) and consulted by the fan-out paths.
        self.viewers = ViewerIndex()
        self.cost_model = TickCostModel(self.config.cost)
        self.metrics = MetricsRegistry()
        #: Checked mode (S15): audit the cross-structure invariants every
        #: N ticks; a violation aborts the run with a precise report. A
        #: disabled audit is a true no-op (auditor stays None; the tick
        #: path pays one attribute check).
        self._audit_every_n_ticks = (
            self.config.audit_every_n_ticks or AUDIT_DEFAULT_EVERY_N_TICKS
        )
        if self._audit_every_n_ticks > 0:
            self._auditor = InvariantAuditor()
            self.transport.enable_fifo_checking()
        else:
            self._auditor = None

        #: Non-None only inside a commit-batching scope (S17): pending
        #: ``(dyconit_id, update, exclude)`` triples for ``commit_many``.
        self._commit_buffer: list | None = None
        self.dyconits: DyconitSystem | None = None
        if not direct_mode:
            if policy is None:
                raise ValueError("a Policy is required unless direct_mode=True")
            self.dyconits = DyconitSystem(
                policy,
                partitioner if partitioner is not None else ChunkPartitioner(),
                time_source=lambda: sim.now,
                merging_enabled=self.config.merging_enabled,
                telemetry=self.telemetry,
                state_store=self.config.state_store,
            )
        #: S19 control plane: when attached, queued retune ops are applied
        #: atomically at the top of each tick (the tick barrier).
        self.control_plane = None

        self.sessions: dict[int, PlayerSession] = {}
        self._client_by_entity: dict[int, int] = {}
        self._next_client_id = 1
        self._inbound: list[tuple[int, PlayerActionPacket]] = []
        self._mob_ids: list[int] = []
        self._mob_rng = derive_rng(self.config.seed, "server", "mobs")

        self.messages_sent = 0
        self.tick_count = 0
        self.smoothed_tick_ms = 0.0
        self._smoothed_bytes_per_s = 0.0
        self._last_keepalive = 0.0
        self._running = False
        self._tick_event = None

        self.world.time_source = lambda: sim.now
        self.world.add_listener(self._on_world_event)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, schedule_ticks: bool = True) -> None:
        """Spawn ambient mobs and schedule the first tick.

        Restart-safe: mobs are only spawned once per server, and any tick
        still scheduled from a previous start/stop cycle is superseded so
        a restarted server never ticks at double speed.

        ``schedule_ticks=False`` starts the server without entering the
        self-scheduling tick loop: an external driver (the S18 parallel
        shard runner's worker loop) calls :meth:`tick_once` itself and
        owns the cadence.
        """
        if self._running:
            raise RuntimeError("server already started")
        self._running = True
        if not self._mob_ids:
            self._spawn_mobs()
        if self._tick_event is not None:
            self._tick_event.cancel()
        if schedule_ticks:
            self._tick_event = self.sim.schedule(TICK_INTERVAL_MS, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def close(self) -> None:
        """Stop the server and release middleware backend resources.

        Idempotent. A store the caller passed in as an *instance* (the
        restart harness keeping one file-backed store across server
        generations) is left open — only spec-built backends are closed;
        see :meth:`DyconitSystem.close`.
        """
        self.stop()
        if self.dyconits is not None:
            self.dyconits.close()

    def __enter__(self) -> "GameServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def connect(
        self,
        name: str,
        handler,
        position: Vec3 | None = None,
        client_id: int | None = None,
        entity_id: int | None = None,
    ) -> PlayerSession:
        """Connect a new player; returns its session.

        ``handler`` receives every delivered packet (the bot client's
        inbound side). ``client_id`` lets a *rejoining* client reuse its
        previous id (a fresh session is still built from scratch —
        ``known_entities``, ``view_chunks`` and dyconit subscriptions all
        start empty; the transport's generation tag keeps in-flight
        packets from the old connection away from the new one). Every
        link, view distance and fault plan is the config's. ``entity_id``
        preserves an avatar identity minted elsewhere — a cross-shard
        session handoff (S16) respawns the avatar here under the id every
        other replica in the cluster already knows it by.
        """
        if client_id is None:
            client_id = self._next_client_id
            self._next_client_id += 1
        else:
            if client_id in self.sessions:
                raise ValueError(f"client {client_id} is already connected")
            self._next_client_id = max(self._next_client_id, client_id + 1)
        self.transport.connect(client_id, handler)

        if position is None:
            position = self.world.surface_position(8.0, 8.0)
        # Spawning the avatar emits an EntitySpawnEvent that reaches every
        # *existing* viewer through the normal broadcast path.
        entity = self.world.spawn_entity(
            EntityKind.PLAYER, position, name=name, entity_id=entity_id
        )

        session = PlayerSession(
            client_id=client_id,
            entity_id=entity.entity_id,
            name=name,
            view_distance=self.config.view_distance,
            connected_at=self.sim.now,
        )
        self.sessions[client_id] = session
        self._client_by_entity[entity.entity_id] = client_id
        session.known_entities.bind(session, self.viewers)

        if self.dyconits is not None:
            subscriber = Subscriber(
                subscriber_id=client_id,
                deliver=self._make_delivery_handler(session),
                position_provider=self._make_position_provider(entity.entity_id),
            )
            self.dyconits.register_subscriber(subscriber)

        self.send_packets(session, [JoinGamePacket(entity_id=entity.entity_id)])
        self.interest.sync_on_join(session)
        return session

    def disconnect(self, client_id: int) -> None:
        session = self.sessions.pop(client_id, None)
        if session is None:
            return
        # A disconnect inside a commit-batching burst despawns the avatar
        # below; anything buffered must be committed (and encoded) while
        # the entity still exists.
        if self._commit_buffer:
            self._flush_commits()
        if self.dyconits is not None:
            self.dyconits.remove_subscriber(client_id, flush_pending=False)
        self.interest.on_leave(session)
        self._client_by_entity.pop(session.entity_id, None)
        if self.world.get_entity(session.entity_id) is not None:
            self.world.despawn_entity(session.entity_id)
        self.transport.disconnect(client_id)

    @property
    def player_count(self) -> int:
        return len(self.sessions)

    # ------------------------------------------------------------------
    # Inbound actions
    # ------------------------------------------------------------------

    def submit_action(self, client_id: int, action: PlayerActionPacket) -> None:
        """Queue a client action for processing at the next tick."""
        if client_id not in self.sessions:
            return  # raced a disconnect
        self._inbound.append((client_id, action))

    def _apply_action(self, client_id: int, action: PlayerActionPacket) -> None:
        session = self.sessions.get(client_id)
        if session is None:
            return
        session.actions_received += 1
        if action.action == "move" and action.position is not None:
            self.world.move_entity(session.entity_id, action.position)
        elif action.action == "place" and action.block_pos is not None:
            block = action.block if action.block is not None else BlockType.COBBLESTONE
            self.world.set_block(action.block_pos, block, actor_id=session.entity_id)
        elif action.action == "dig" and action.block_pos is not None:
            self.world.set_block(
                action.block_pos, BlockType.AIR, actor_id=session.entity_id
            )
        elif action.action == "chat":
            self.world.chat(session.entity_id, str(action.extra.get("text", "")))

    # ------------------------------------------------------------------
    # Broadcast paths
    # ------------------------------------------------------------------

    # -- S17 commit batching -------------------------------------------

    @contextmanager
    def _commit_batching(self):
        """Buffer bufferable commits for one burst (action loop, mob
        step, remote-record apply) and release them through
        ``commit_many`` at scope exit.

        The buffered triples were classified and partitioned at event
        time, so the replayed ``commit_to`` sequence is exactly the one
        the unbuffered path would have issued — only the per-commit
        resolve/lookup overhead is amortized. Reentrant scopes no-op.
        """
        if self.dyconits is None or self._commit_buffer is not None:
            yield
            return
        self._commit_buffer = []
        try:
            yield
        finally:
            buffer, self._commit_buffer = self._commit_buffer, None
            if buffer:
                self.dyconits.commit_many(buffer)

    def _flush_commits(self) -> None:
        """Release buffered commits now, keeping the batching scope open.

        Called at ordering boundaries inside a burst: before an interest
        change, before a spawn/despawn commit, and (in the sharded
        server) before anything that posts to the cluster bus or mutates
        entity existence — buffered updates must be committed while the
        world state they will be encoded against is still current.
        """
        buffer = self._commit_buffer
        if buffer:
            self._commit_buffer = []
            self.dyconits.commit_many(buffer)

    @staticmethod
    def _bufferable(event: WorldEvent) -> bool:
        """Events safe to hold until the end of the burst: they neither
        change entity existence nor interest membership, so delayed
        delivery encodes identical packets. Spawns/despawns are not."""
        return isinstance(event, (EntityMoveEvent, BlockChangeEvent, ChatEvent))

    def _on_world_event(self, event: WorldEvent) -> None:
        # Stamp world time so event timestamps match simulation time.
        exclude = self._originating_client(event)
        buffering = self._commit_buffer is not None
        crossed = False
        if isinstance(event, EntityMoveEvent):
            old_chunk = event.old_position.to_chunk_pos()
            new_chunk = event.new_position.to_chunk_pos()
            if old_chunk != new_chunk:
                crossed = True
                # Interest changes (un)subscribe dyconits; buffered
                # commits must land under the *old* subscriptions.
                if buffering:
                    self._flush_commits()
                with self.telemetry.span("tick.interest"):
                    self.interest.on_entity_crossed(
                        event.entity_id, old_chunk, new_chunk
                    )

        if self.dyconits is None:
            self._broadcast_direct(event, exclude)
        elif buffering:
            if self._bufferable(event):
                self._commit_buffer.append(
                    (self.dyconits.partitioner.dyconit_for_event(event), event, exclude)
                )
            else:
                self._flush_commits()
                self.dyconits.commit(event, exclude_subscriber=exclude)
        else:
            self.dyconits.commit(event, exclude_subscriber=exclude)

        if isinstance(event, EntityMoveEvent):
            client_id = self._client_by_entity.get(event.entity_id)
            if client_id is not None:
                session = self.sessions.get(client_id)
                if session is not None:
                    # A crossing refresh re-centers the view: it sends
                    # packets and (un)subscribes dyconits, so the
                    # buffered commit appended above must go out first
                    # (legacy order is commit-then-refresh). A
                    # non-crossing refresh is a no-op and keeps the
                    # batch open.
                    if buffering and crossed:
                        self._flush_commits()
                    with self.telemetry.span("tick.interest"):
                        refreshed = self.interest.refresh(session)
                    if refreshed and self.dyconits is not None:
                        self.dyconits.notify_subscriber_moved(client_id)

    def _broadcast_direct(self, event: WorldEvent, exclude: int | None) -> None:
        """Vanilla broadcast: encode and send ``event`` to each viewer.

        Chunk-anchored events consult the viewer index and touch only the
        sessions that actually view the event's chunk — O(viewers), not
        O(players). Chunk-less events (chat) keep the full-broadcast path.
        """
        chunk = event.chunk_pos
        sessions = (
            self.sessions.values() if chunk is None else self.viewers.viewers(chunk)
        )
        if type(event) is EntityMoveEvent:
            # The dominant case: one packet object per event, shared by
            # every viewer whose replica stands where the others' do.
            for session, packet in self.codec.encode_move_for_viewers(
                sessions, event, chunk, exclude
            ):
                self.send_packets(session, (packet,))
            return
        segments = ((None, (event,)),)
        for session in sessions:
            if session.client_id == exclude:
                continue
            packets = self.codec.encode(session, segments)
            if packets:
                self.send_packets(session, packets)

    def _originating_client(self, event: WorldEvent) -> int | None:
        actor_id = getattr(event, "actor_id", None)
        if actor_id is None:
            actor_id = getattr(event, "sender_id", None)
        if actor_id is None and isinstance(event, EntityMoveEvent):
            actor_id = event.entity_id
        if actor_id is None:
            return None
        return self._client_by_entity.get(actor_id)

    def _make_delivery_handler(self, session: PlayerSession):
        delay_histogram = self.metrics.histogram("update_queue_delay_ms", min_value=0.1)

        def deliver(segments: Sequence[tuple[Hashable, Sequence[WorldEvent]]]) -> None:
            now = self.sim.now
            with self.telemetry.span("tick.serialize"):
                delay_histogram.record_many(
                    [
                        max(0.0, now - update.time)
                        for __, updates in segments
                        for update in updates
                    ]
                )
                packets = self.codec.encode(session, segments)
            if packets:
                self.send_packets(session, packets)

        return deliver

    def _make_position_provider(self, entity_id: int):
        def position() -> Vec3:
            entity = self.world.get_entity(entity_id)
            return entity.position if entity is not None else Vec3.zero()

        return position

    def send_packets(self, session: PlayerSession, packets: Sequence[Packet]) -> None:
        send = self.transport.send
        client_id = session.client_id
        for packet in packets:
            send(client_id, packet)
        session.packets_sent += len(packets)
        self.messages_sent += len(packets)

    @contextmanager
    def _egress_frames(self):
        """Cork the transport over a run of tick phases: every packet
        they send waits in its client's pending frame, and the frames go
        out together — one per client — when the scope ends, inside the
        ``tick.egress`` span. They go out even if a phase raises (those
        packets had reached their links before the error without a
        cork), so the transport is never left corked. The codec's move
        memo is dropped with them."""
        self.transport.cork()
        try:
            yield
        finally:
            self.codec.clear_moves()
            with self.telemetry.span("tick.egress"):
                self.transport.uncork()

    # ------------------------------------------------------------------
    # Tick loop
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        if not self._running:
            return
        duration = self.tick_once()

        # 8. Schedule the next tick. An overloaded tick pushes the next
        #    one out, dropping the effective tick rate below 20 Hz.
        delay = max(TICK_INTERVAL_MS, duration)
        self._tick_event = self.sim.schedule(delay, self._tick)

    def tick_once(self) -> float:
        """Run one tick's phases (input, simulate, flush, keepalive,
        egress, pricing, policy + egress, audit) and return the priced
        duration in ms.

        This is the whole tick *except* scheduling the next one — the
        seam the parallel shard runner drives from a worker process,
        where the parent owns the tick cadence and the worker only
        executes phases. The self-scheduling loop (:meth:`_tick`) calls
        it too, so both drivers run byte-identical phase sequences.
        """
        self.tick_count += 1

        # 0. Control plane (S19): apply queued retune ops atomically at
        #    the tick barrier, before any phase observes bounds/policy.
        if self.control_plane is not None:
            self.control_plane.apply(self, self.tick_count)

        bytes_before = self.transport.total_bytes()
        messages_before = self.messages_sent
        if self.dyconits is not None:
            commits_before = self.dyconits.stats.commits
            enqueues_before = self.dyconits.stats.updates_enqueued
            flushes_before = self.dyconits.stats.flushes
        else:
            commits_before = enqueues_before = flushes_before = 0

        telemetry = self.telemetry

        # Phases 1-4 send into per-client pending frames; the frames
        # leave before pricing, which reads this tick's bytes.
        with self._egress_frames():
            # 1. Inbound actions (commit-batched: the burst's bufferable
            #    events go through commit_many at scope exit).
            inbound, self._inbound = self._inbound, []
            with telemetry.span("tick.input"), self._commit_batching():
                for client_id, action in inbound:
                    self._apply_action(client_id, action)

            # 2. Ambient mobs.
            if self._mob_ids and self.tick_count % MOB_STEP_TICKS == 0:
                with telemetry.span("tick.simulate"), self._commit_batching():
                    self._step_mobs()

            # 3. Middleware staleness flushes.
            if self.dyconits is not None:
                with telemetry.span("tick.flush"):
                    self.dyconits.tick()

            # 4. Keepalives.
            if self.sim.now - self._last_keepalive >= KEEPALIVE_INTERVAL_MS:
                self._last_keepalive = self.sim.now
                with telemetry.span("tick.keepalive"):
                    for session in self.sessions.values():
                        self.send_packets(
                            session, [KeepAlivePacket(nonce=self.tick_count)]
                        )

        # 5. Price the tick. Nothing is sent from here to the
        #    ``bytes_total`` series write, so one total serves both.
        bytes_after = self.transport.total_bytes()
        if self.dyconits is not None:
            commits = self.dyconits.stats.commits - commits_before
            enqueues = self.dyconits.stats.updates_enqueued - enqueues_before
            flushes = self.dyconits.stats.flushes - flushes_before
        else:
            commits = enqueues = flushes = 0
        work = TickWorkload(
            players=len(self.sessions),
            actions=len(inbound),
            commits=commits,
            enqueues=enqueues,
            flushes=flushes,
            messages=self.messages_sent - messages_before,
            bytes_sent=bytes_after - bytes_before,
        )
        duration = self.cost_model.tick_duration_ms(work)
        self.smoothed_tick_ms = (
            TICK_EWMA_ALPHA * duration + (1 - TICK_EWMA_ALPHA) * self.smoothed_tick_ms
        )
        tick_bytes_per_s = work.bytes_sent / (TICK_INTERVAL_MS / 1000.0)
        self._smoothed_bytes_per_s = (
            TICK_EWMA_ALPHA * tick_bytes_per_s
            + (1 - TICK_EWMA_ALPHA) * self._smoothed_bytes_per_s
        )
        self.metrics.series("tick_duration_ms").record(self.sim.now, duration)
        self.metrics.series("player_count").record(self.sim.now, len(self.sessions))
        self.metrics.series("bytes_total").record(self.sim.now, bytes_after)
        if telemetry.enabled:
            telemetry.counter("server_ticks_total").increment()
            telemetry.gauge("server_players").set(len(self.sessions))
            telemetry.gauge("viewer_index_size").set(self.viewers.pair_count)
            telemetry.histogram("server_tick_priced_ms", min_value=0.1).record(duration)

        # 6. Policy evaluation (rate-limited inside the system). A
        #    tightening retune flushes through ``deliver``: framed too,
        #    and out before the audit.
        if self.dyconits is not None:
            with self._egress_frames(), telemetry.span("tick.policy"):
                self.dyconits.evaluate_policy(self.load_signals(duration))

        # 7. Checked mode: audit the middleware + server structure pairs.
        if self._auditor is not None and self.tick_count % self._audit_every_n_ticks == 0:
            self.audit_now()

        return duration

    def audit_now(self) -> None:
        """Run one invariant audit; raises on any violation.

        Called by the tick loop every ``audit_every_n_ticks`` ticks, and
        directly by tests that want a final barrier audit.
        """
        auditor = self._auditor if self._auditor is not None else InvariantAuditor()
        with self.telemetry.span("tick.audit"):
            violations = auditor.check_server(self)
        if self.telemetry.enabled:
            self.telemetry.counter("invariant_checks_total").increment()
            if violations:
                self.telemetry.counter("invariant_violations_total").increment(
                    len(violations)
                )
        if violations:
            raise InvariantViolationError(violations)

    def load_signals(self, last_tick_duration_ms: float | None = None) -> LoadSignals:
        return LoadSignals(
            now=self.sim.now,
            player_count=len(self.sessions),
            last_tick_duration_ms=(
                last_tick_duration_ms
                if last_tick_duration_ms is not None
                else self.smoothed_tick_ms
            ),
            smoothed_tick_duration_ms=self.smoothed_tick_ms,
            tick_budget_ms=TICK_INTERVAL_MS,
            outgoing_bytes_per_second=self._smoothed_bytes_per_s,
        )

    # ------------------------------------------------------------------
    # Ambient mobs
    # ------------------------------------------------------------------

    def _spawn_mobs(self) -> None:
        kinds = (EntityKind.COW, EntityKind.SHEEP, EntityKind.ZOMBIE)
        for index in range(self.config.mob_count):
            x = self._mob_rng.uniform(-40.0, 40.0)
            z = self._mob_rng.uniform(-40.0, 40.0)
            position = self.world.surface_position(x, z)
            kind = kinds[index % len(kinds)]
            mob = self.world.spawn_entity(kind, position)
            self._mob_ids.append(mob.entity_id)

    def _step_mobs(self) -> None:
        for mob_id in self._mob_ids:
            entity = self.world.get_entity(mob_id)
            if entity is None:
                continue
            dx = self._mob_rng.uniform(-0.4, 0.4)
            dz = self._mob_rng.uniform(-0.4, 0.4)
            target = self.world.surface_position(
                entity.position.x + dx, entity.position.z + dz
            )
            self.world.move_entity(mob_id, target)
