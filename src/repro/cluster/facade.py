"""The sharded cluster facade.

:class:`ShardedCluster` presents N shards behind the single-server
surface that workloads, bots and experiments already use: ``connect`` /
``disconnect`` / ``submit_action`` with cluster-global client ids, and a
``world`` view resolving authoritative entities across shards. A bot
cannot tell (apart from the occasional rejoin) that its session migrates
between servers.

Scheduling discipline (the determinism contract):

* all shards share one simulation; shard ticks are scheduled in shard-id
  order, so same-timestamp ticks run 0, 1, ..., N-1;
* the bus **pump** is scheduled after every shard tick at cluster start
  and runs at fixed tick cadence; it drains all inter-shard traffic to
  empty in rounds (sorted edge order, FIFO within an edge; each
  destination applies its part of a round as one unit,
  :meth:`ShardServer.deliver_round`) — the barrier at which cross-shard
  state is mutually consistent;
* cluster invariants (I7 ownership, I8 mirrored subscriptions) are
  audited exactly at that barrier.

The 1-shard cluster is the differential anchor: every routing decision
degenerates to shard 0, no bus message is ever posted, and the packet
streams are byte-identical to a legacy ``GameServer`` run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.cluster.bus import InterShardBus, Round, by_destination
from repro.cluster.messages import SessionHandoff
from repro.cluster.router import ShardRouter
from repro.cluster.shard import build_shard
from repro.core.invariants import InvariantAuditor, InvariantViolationError
from repro.net.protocol import PlayerActionPacket
from repro.server import engine as engine_module
from repro.server.config import TICK_INTERVAL_MS, ServerConfig
from repro.sim.simulator import Simulation
from repro.telemetry.hub import NULL_TELEMETRY, Telemetry
from repro.world.entity import Entity
from repro.world.geometry import Vec3


@dataclass(frozen=True, slots=True)
class ClientProfile:
    """Everything needed to rebuild a session on another shard.

    The handler is runtime only: a profile that crosses the worker pipe
    or enters a checkpoint carries ``handler=None``, and the receiving
    side attaches its own.
    """

    name: str
    handler: object


class ClusterWorldView:
    """Read-only cross-shard world resolver for bots and workloads.

    Terrain is identical on every shard (same seed), so terrain queries
    go to shard 0; entity lookups return the *authoritative* copy,
    skipping ghosts, so consistency metrics measure true cross-shard
    error.
    """

    def __init__(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster

    @property
    def time(self) -> float:
        return self._cluster.sim.now

    def surface_height(self, x: int, z: int) -> int:
        return self._cluster.shards[0].world.surface_height(x, z)

    def surface_position(self, x: float, z: float) -> Vec3:
        return self._cluster.shards[0].world.surface_position(x, z)

    def get_entity(self, entity_id: int) -> Entity | None:
        for shard in self._cluster.shards:
            entity = shard.world.get_entity(entity_id)
            if entity is not None and entity_id not in shard.ghost_ids:
                return entity
        return None

    def entities(self):
        """Authoritative entities, in shard order then spawn order."""
        for shard in self._cluster.shards:
            for entity in shard.world.entities():
                if entity.entity_id not in shard.ghost_ids:
                    yield entity

    @property
    def entity_count(self) -> int:
        return sum(1 for __ in self.entities())


class ShardedCluster:
    """N federated shards behind a single-server facade.

    A runtime keeping its shards in worker processes (S18) overrides
    ``_build_shards``, ``start``, ``_relay_bus`` and ``_shard_reports``;
    the pump and the audit stay here.
    """

    def __init__(
        self,
        sim: Simulation,
        shards: int = 2,
        strip_width: int = 4,
        config: ServerConfig | None = None,
        policy_factory=None,
        partitioner_factory=None,
        telemetry: Telemetry | None = None,
        state_stores=None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if state_stores is not None and len(state_stores) != shards:
            raise ValueError(
                f"state_stores must have one entry per shard: got "
                f"{len(state_stores)} for {shards} shards"
            )
        if policy_factory is None:
            raise ValueError(
                "cross-shard federation runs on inter-server dyconits: a "
                "cluster needs a policy_factory"
            )
        self.sim = sim
        self.config = config if config is not None else ServerConfig()
        self.router = ShardRouter(shards, strip_width)
        self.bus = InterShardBus()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._next_client_id = 1
        self._shard_by_client: dict[int, int] = {}
        self._profiles: dict[int, ClientProfile] = {}
        #: client id -> (src, dst) while a handoff message is in flight.
        self._in_transit: dict[int, tuple[int, int]] = {}
        self.handoffs = 0
        self.handoffs_cancelled = 0
        self.pump_count = 0
        self._running = False
        self._pump_event = None
        #: S19 control plane: queued retune ops are applied to every
        #: shard atomically at the cluster pump (the cluster barrier).
        self.control_plane = None
        self._audit_every_n_pumps = (
            self.config.audit_every_n_ticks
            or engine_module.AUDIT_DEFAULT_EVERY_N_TICKS
        )
        self.shards = self._build_shards(policy_factory, partitioner_factory, state_stores)
        self.world = ClusterWorldView(self)

    def _build_shards(self, policy_factory, partitioner_factory, state_stores) -> list:
        """One live :class:`ShardServer` per shard, in shard-id order."""
        shards = []
        for shard_id in range(self.router.shards):
            # Durable restart (S20): each shard may get its own state
            # store (file-backed stores cannot be shared across shards).
            shard_config = (
                self.config
                if state_stores is None
                else dataclasses.replace(self.config, state_store=state_stores[shard_id])
            )
            shard = build_shard(
                self.sim,
                shard_id,
                self.router,
                self.bus,
                shard_config,
                policy_factory,
                partitioner_factory,
                telemetry=self.telemetry,
            )
            shard.cluster = self
            shards.append(shard)
        return shards

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("cluster already started")
        self._running = True
        for shard in self.shards:
            shard.start()
        for shard in self.shards:
            shard.ensure_peers(len(self.shards))
        # Scheduled after every shard scheduled its tick at the same
        # cadence, so at each timestamp the pump's sequence number sorts
        # after the ticks: tick 0..N-1, then the barrier.
        self._pump_event = self.sim.schedule(TICK_INTERVAL_MS, self._pump)

    def stop(self) -> None:
        self._running = False
        if self._pump_event is not None:
            self._pump_event.cancel()
            self._pump_event = None
        for shard in self.shards:
            shard.stop()

    def close(self) -> None:
        """Stop the cluster and close every shard: release its backend
        resources, or shut its worker down (idempotent; stores handed in
        via ``state_stores`` instances remain the caller's to close)."""
        self.stop()
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pump(self) -> None:
        """The cluster barrier: drain the bus, publish the barrier's
        telemetry, audit on cadence, schedule the next pump."""
        if not self._running:
            return
        self.pump_count += 1
        if self.control_plane is not None:
            self.control_plane.apply(self, self.pump_count)
        delivered = self._relay_bus()
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.counter("cluster_pumps_total").increment()
            if delivered:
                telemetry.counter("cluster_bus_messages_total").increment(delivered)
            telemetry.gauge("cluster_bus_bytes").set(self.bus.total_bytes)
            telemetry.gauge("bus_pump_rounds").set(self.bus.last_pump_rounds)
            telemetry.gauge("cluster_handoffs").set(self.handoffs)
            for shard in self.shards:
                label = str(shard.shard_id)
                telemetry.gauge("shard_players", shard=label).set(len(shard.sessions))
                telemetry.gauge("shard_ghosts", shard=label).set(len(shard.ghost_ids))
                telemetry.gauge("shard_handoffs_out", shard=label).set(
                    shard.handoffs_out
                )
        if (
            self._audit_every_n_pumps > 0
            and self.pump_count % self._audit_every_n_pumps == 0
        ):
            self.audit_now()
        self._pump_event = self.sim.schedule(TICK_INTERVAL_MS, self._pump)

    def _relay_bus(self) -> int:
        """Deliver the bus to empty, round by round, each destination's
        part as one unit; returns the messages delivered."""
        delivered = 0
        for round_batches in self.bus.rounds():
            self._stage_handoffs(round_batches)
            for dst, segment in by_destination(round_batches):
                delivered += self.shards[dst].deliver_round(segment)
        return delivered

    def _stage_handoffs(self, round_batches: Round) -> None:
        """The facade's half of every adoption in a round, before the
        round is delivered: in the round's edge order, each handed-off
        client leaves transit and its profile is staged on the target
        shard. A client that disconnected mid-flight has no profile left
        to stage, and the target drops its message."""
        for (__, dst), messages in round_batches:
            for message in messages:
                if not isinstance(message, SessionHandoff):
                    continue
                client_id = message.client_id
                if self._in_transit.pop(client_id, None) is None:
                    continue
                profile = self._profiles.get(client_id)
                if profile is not None:
                    self.shards[dst].stage_handoff(client_id, profile)

    # ------------------------------------------------------------------
    # Single-server facade
    # ------------------------------------------------------------------

    def connect(
        self,
        name: str,
        handler,
        position: Vec3 | None = None,
        client_id: int | None = None,
    ):
        """Connect a client to whichever shard owns its spawn position."""
        if client_id is None:
            client_id = self._next_client_id
            self._next_client_id += 1
        else:
            if client_id in self._shard_by_client or client_id in self._in_transit:
                raise ValueError(f"client {client_id} is already connected")
            self._next_client_id = max(self._next_client_id, client_id + 1)
        if position is None:
            position = self.shards[0].world.surface_position(8.0, 8.0)
        shard_id = self.router.shard_for_position(position)
        self._profiles[client_id] = ClientProfile(name=name, handler=handler)
        session = self.shards[shard_id].connect(
            name, handler, position=position, client_id=client_id
        )
        self._shard_by_client[client_id] = shard_id
        return session

    def disconnect(self, client_id: int) -> None:
        if client_id in self._in_transit:
            # Churn racing a handoff: the session only exists as a bus
            # message. Cancel the record; the target drops the message.
            del self._in_transit[client_id]
            self._profiles.pop(client_id, None)
            self.handoffs_cancelled += 1
            return
        shard_id = self._shard_by_client.pop(client_id, None)
        if shard_id is None:
            return
        self._profiles.pop(client_id, None)
        self.shards[shard_id].disconnect(client_id)

    def submit_action(self, client_id: int, action: PlayerActionPacket) -> None:
        shard_id = self._shard_by_client.get(client_id)
        if shard_id is None:
            return  # unknown, or mid-handoff: dropped like a raced disconnect
        self.shards[shard_id].submit_action(client_id, action)

    @property
    def player_count(self) -> int:
        return len(self._shard_by_client)

    @property
    def sessions(self):
        """client id -> session across all shards (facade-order merged)."""
        merged = {}
        for shard in self.shards:
            merged.update(shard.sessions)
        return merged

    def shard_of(self, client_id: int) -> int | None:
        return self._shard_by_client.get(client_id)

    # ------------------------------------------------------------------
    # Handoff bookkeeping (called by shards)
    # ------------------------------------------------------------------

    def on_handoff_started(self, client_id: int, src: int, dst: int) -> None:
        self._shard_by_client.pop(client_id, None)
        self._in_transit[client_id] = (src, dst)

    def on_handoff_completed(self, client_id: int, shard_id: int) -> None:
        self._shard_by_client[client_id] = shard_id
        self.handoffs += 1

    def in_transit_clients(self) -> tuple[int, ...]:
        return tuple(self._in_transit)

    # ------------------------------------------------------------------
    # Aggregates & audit
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        return sum(shard.transport.total_bytes() for shard in self.shards)

    def total_packets(self) -> int:
        return sum(shard.transport.total_packets() for shard in self.shards)

    def audit_now(self) -> None:
        """One cluster-wide invariant audit at the pump barrier."""
        violations = InvariantAuditor().check_cluster(self, self._shard_reports())
        if self.telemetry.enabled:
            self.telemetry.counter("invariant_checks_total").increment()
            if violations:
                self.telemetry.counter("invariant_violations_total").increment(
                    len(violations)
                )
        if violations:
            raise InvariantViolationError(violations)

    def _shard_reports(self) -> list:
        """Each shard's half of the audit
        (:meth:`InvariantAuditor.shard_report`), taken where it lives."""
        auditor = InvariantAuditor()
        return [auditor.shard_report(shard) for shard in self.shards]
