"""The bot client: an emulated player.

A bot drives one player session: it walks toward waypoints, occasionally
places/breaks blocks and chats, and — crucially for the evaluation —
applies every received packet to a :class:`PerceivedWorld` replica. The
difference between that replica and the authoritative world *is* the
inconsistency the dyconit bounds promise to limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.protocol import (
    BlockChangePacket,
    ChatMessagePacket,
    ChunkDataPacket,
    ChunkUnloadPacket,
    DestroyEntitiesPacket,
    EntityPositionPacket,
    EntityTeleportPacket,
    JoinGamePacket,
    MultiBlockChangePacket,
    PlayerActionPacket,
    SpawnEntityPacket,
)
from repro.net.transport import DeliveredPacket
from repro.sim.rng import derive_rng
from repro.sim.simulator import Simulation
from repro.world.block import BUILDING_BLOCKS, BlockType
from repro.world.chunk import WORLD_HEIGHT
from repro.world.geometry import BlockPos, ChunkPos, Vec3
from repro.bots.movement import WALK_SPEED, MovementModel, RandomWaypointModel

#: Upstream (client -> server) one-way latency for bot actions, ms.
UPSTREAM_LATENCY_MS = 25.0
#: A bot acts (one client frame) this often, ms.
ACT_INTERVAL_MS = 100.0


@dataclass
class PerceivedWorld:
    """The bot's replica, reconstructed purely from received packets."""

    #: entity id -> believed position.
    entity_positions: dict[int, Vec3] = field(default_factory=dict)
    #: entity id -> sim time of the last update applied for it.
    entity_last_update: dict[int, float] = field(default_factory=dict)
    #: sparse overlay of block changes received (pos -> block).
    blocks: dict[BlockPos, BlockType] = field(default_factory=dict)
    loaded_chunks: set[ChunkPos] = field(default_factory=set)
    chat_log: list[str] = field(default_factory=list)

    def apply(self, delivered: DeliveredPacket) -> None:
        packet = delivered.packet
        now = delivered.delivered_at
        kind = type(packet)
        if kind is EntityPositionPacket:  # nine packets in ten
            current = self.entity_positions.get(packet.entity_id)
            if current is not None:
                self.entity_positions[packet.entity_id] = current + packet.delta
                self.entity_last_update[packet.entity_id] = now
        elif kind is SpawnEntityPacket or kind is EntityTeleportPacket:
            self.entity_positions[packet.entity_id] = packet.position
            self.entity_last_update[packet.entity_id] = now
        elif kind is DestroyEntitiesPacket:
            for entity_id in packet.entity_ids:
                self.entity_positions.pop(entity_id, None)
                self.entity_last_update.pop(entity_id, None)
        elif kind is BlockChangePacket:
            self.blocks[packet.pos] = packet.block
        elif kind is MultiBlockChangePacket:
            for pos, block in packet.changes:
                self.blocks[pos] = block
        elif kind is ChunkDataPacket:
            self.loaded_chunks.add(packet.chunk)
        elif kind is ChunkUnloadPacket:
            self.loaded_chunks.discard(packet.chunk)
            # Forget overlay blocks in the unloaded chunk.
            cx, cz = packet.chunk.cx, packet.chunk.cz
            for pos in [p for p in self.blocks if p.x >> 4 == cx and p.z >> 4 == cz]:
                del self.blocks[pos]
        elif kind is ChatMessagePacket:
            self.chat_log.append(packet.text)


class BotClient:
    """Emulated player driving one session."""

    def __init__(
        self,
        sim: Simulation,
        server,
        name: str,
        seed: int,
        movement: MovementModel | None = None,
        build_probability: float = 0.0,
        dig_probability: float = 0.0,
        chat_probability: float = 0.0,
    ) -> None:
        self.sim = sim
        self.server = server
        self.name = name
        self.rng = derive_rng(seed, "bot", name)
        self.movement = movement if movement is not None else RandomWaypointModel()
        self.build_probability = build_probability
        self.dig_probability = dig_probability
        self.chat_probability = chat_probability

        self.perceived = PerceivedWorld()
        self.position: Vec3 | None = None
        self.waypoint: Vec3 | None = None
        self.client_id: int | None = None
        self.entity_id: int | None = None
        self.connected = False
        #: Set before a deferred connect fires to abort it (burst churn).
        self.cancelled = False
        self.packets_received = 0
        self.blocks_placed = 0
        self.blocks_dug = 0
        self.reconnects = 0
        self._act_event = None

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------

    def connect(self, position: Vec3 | None = None) -> None:
        """(Re)connect. A reconnect models a fresh client process: the
        perceived replica starts empty and is rebuilt purely from the
        packets of the new session. It keeps the previous client id
        (exercising the transport's connection generations against
        in-flight packets from the old socket)."""
        if self.cancelled:
            return
        if self.connected:
            raise RuntimeError(f"bot {self.name} is already connected")
        previous_id = self.client_id
        self.perceived = PerceivedWorld()
        self.waypoint = None
        session = self.server.connect(
            self.name,
            handler=self.on_packet,
            position=position,
            client_id=previous_id,
        )
        self.client_id = session.client_id
        self.entity_id = session.entity_id
        entity = self.server.world.get_entity(session.entity_id)
        self.position = entity.position
        self.connected = True
        if previous_id is not None:
            self.reconnects += 1
        self._schedule_act()

    def disconnect(self) -> None:
        if not self.connected:
            return
        self.connected = False
        if self._act_event is not None:
            self._act_event.cancel()
            self._act_event = None
        self.server.disconnect(self.client_id)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------

    def on_packet(self, delivered: DeliveredPacket) -> None:
        self.packets_received += 1
        packet = delivered.packet
        if type(packet) is JoinGamePacket:
            self.entity_id = packet.entity_id
            # A JoinGame marks a brand-new server-side session — either
            # this connect, or a cross-shard handoff (S16) that rebuilt
            # the session elsewhere. Server state starts from scratch
            # (sync-on-join replays the view), so the replica must too;
            # keeping stale entries would double-count replicas the new
            # session re-announces.
            self.perceived = PerceivedWorld()
            return
        self.perceived.apply(delivered)

    # ------------------------------------------------------------------
    # Acting
    # ------------------------------------------------------------------

    def _schedule_act(self) -> None:
        self._act_event = self.sim.schedule(ACT_INTERVAL_MS, self.act)

    def act(self) -> None:
        """One client frame: walk a step, maybe build/dig/chat."""
        if not self.connected:
            return
        self._step_movement()
        roll = self.rng.random()
        if roll < self.build_probability:
            self._build()
        elif roll < self.build_probability + self.dig_probability:
            self._dig()
        elif roll < self.build_probability + self.dig_probability + self.chat_probability:
            self._chat()
        self._schedule_act()

    def _step_movement(self) -> None:
        if self.waypoint is None or self._horizontal_distance(self.waypoint) < 1.0:
            self.waypoint = self.movement.next_waypoint(self.rng, self.position)
        step = WALK_SPEED * (ACT_INTERVAL_MS / 1000.0)
        direction = Vec3(
            self.waypoint.x - self.position.x, 0.0, self.waypoint.z - self.position.z
        )
        length = direction.horizontal_length()
        if length <= step:
            new_x, new_z = self.waypoint.x, self.waypoint.z
        else:
            new_x = self.position.x + direction.x / length * step
            new_z = self.position.z + direction.z / length * step
        new_position = self.server.world.surface_position(new_x, new_z)
        self.position = new_position
        self._send(PlayerActionPacket(action="move", position=new_position))

    def _build(self) -> None:
        target = self._nearby_block(dy_range=(1, 3))
        if target is None:
            return
        block = self.rng.choice(BUILDING_BLOCKS)
        self.blocks_placed += 1
        self._send(PlayerActionPacket(action="place", block_pos=target, block=block))

    def _dig(self) -> None:
        target = self._nearby_block(dy_range=(-2, 0))
        if target is None:
            return
        self.blocks_dug += 1
        self._send(PlayerActionPacket(action="dig", block_pos=target))

    def _chat(self) -> None:
        self._send(
            PlayerActionPacket(
                action="chat", extra={"text": f"{self.name}: anybody near {int(self.position.x)},{int(self.position.z)}?"}
            )
        )

    def _nearby_block(self, dy_range: tuple[int, int]) -> BlockPos | None:
        base = self.position.to_block_pos()
        dx = self.rng.randint(-3, 3)
        dz = self.rng.randint(-3, 3)
        dy = self.rng.randint(*dy_range)
        y = base.y + dy
        if not (1 <= y < WORLD_HEIGHT):
            return None
        return BlockPos(base.x + dx, y, base.z + dz)

    def _send(self, action: PlayerActionPacket) -> None:
        client_id = self.client_id

        def arrive() -> None:
            self.server.submit_action(client_id, action)

        self.sim.schedule(UPSTREAM_LATENCY_MS, arrive)

    # ------------------------------------------------------------------
    # Inconsistency measurement
    # ------------------------------------------------------------------

    def _horizontal_distance(self, target: Vec3) -> float:
        return self.position.horizontal_distance_to(target)

    def positional_errors(self) -> list[float]:
        """|perceived - authoritative| for every replica entity that still
        exists; the bot's observed numerical inconsistency right now."""
        world = self.server.world
        errors: list[float] = []
        for entity_id, believed in self.perceived.entity_positions.items():
            if entity_id == self.entity_id:
                continue
            entity = world.get_entity(entity_id)
            if entity is None:
                continue
            errors.append(entity.position.distance_to(believed))
        return errors

    def replica_staleness_ms(self, now: float) -> list[float]:
        """Age of each replica entity's last update, for entities that
        have moved since (still exist and are not where we believe)."""
        world = self.server.world
        ages: list[float] = []
        for entity_id, last_update in self.perceived.entity_last_update.items():
            if entity_id == self.entity_id:
                continue
            entity = world.get_entity(entity_id)
            if entity is None:
                continue
            believed = self.perceived.entity_positions.get(entity_id)
            if believed is None:
                continue
            if entity.position.distance_to(believed) > 1e-9:
                # Clamp: with synchronous transport delivery the recorded
                # update time can sit slightly in the future.
                ages.append(max(0.0, now - last_update))
        return ages
