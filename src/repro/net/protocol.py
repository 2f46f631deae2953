"""Packet catalogue.

Server→client and client→server packets mirroring the Minecraft play-state
protocol, each with a documented wire-size model. Body sizes follow the
protocol encoding (positions are 8-byte packed longs, angles single bytes,
entity ids VarInts, doubles 8 bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.serialize import PACKET_FRAME_BYTES, compressed_chunk_bytes, varint_size
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.geometry import BlockPos, ChunkPos, Vec3


@dataclass(frozen=True, slots=True)
class Packet:
    """Base packet. Subclasses define :meth:`body_size`."""

    def body_size(self) -> int:
        raise NotImplementedError

    def wire_size(self) -> int:
        """Total bytes on the wire, including framing."""
        return PACKET_FRAME_BYTES + self.body_size()

    @property
    def kind(self) -> str:
        return type(self).__name__


# ----------------------------------------------------------------------
# Server -> client
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockChangePacket(Packet):
    """One block changed: packed position (8) + block state VarInt."""

    pos: BlockPos
    block: BlockType

    def body_size(self) -> int:
        return 8 + varint_size(int(self.block))


@dataclass(frozen=True, slots=True)
class MultiBlockChangePacket(Packet):
    """Batch of block changes within one chunk section.

    Chunk section position (8) + count VarInt + per-record packed
    ``VarLong(state << 12 | local_pos)`` (modelled at 3 bytes/record).
    """

    chunk: ChunkPos
    changes: tuple[tuple[BlockPos, BlockType], ...]

    def body_size(self) -> int:
        return 8 + varint_size(len(self.changes)) + 3 * len(self.changes)


@dataclass(frozen=True, slots=True)
class ChunkDataPacket(Packet):
    """Full chunk payload (compressed); sent when a chunk enters view."""

    chunk: ChunkPos
    total_blocks: int
    non_air_blocks: int

    def body_size(self) -> int:
        return 8 + compressed_chunk_bytes(self.total_blocks, self.non_air_blocks)


@dataclass(frozen=True, slots=True)
class ChunkUnloadPacket(Packet):
    """Tells the client to discard a chunk: two ints."""

    chunk: ChunkPos

    def body_size(self) -> int:
        return 8


@dataclass(frozen=True, slots=True)
class SpawnEntityPacket(Packet):
    """Entity enters view: id VarInt + UUID(16) + type VarInt + position
    doubles (24) + angles (2) + velocity shorts (6)."""

    entity_id: int
    entity_kind: EntityKind
    position: Vec3
    name: str = ""

    def body_size(self) -> int:
        return varint_size(self.entity_id) + 16 + 1 + 24 + 2 + 6 + len(self.name)


@dataclass(frozen=True, slots=True)
class DestroyEntitiesPacket(Packet):
    """Entities leave view: count VarInt + id VarInts."""

    entity_ids: tuple[int, ...]

    def body_size(self) -> int:
        return varint_size(len(self.entity_ids)) + sum(
            varint_size(entity_id) for entity_id in self.entity_ids
        )


@dataclass(frozen=True, slots=True)
class EntityPositionPacket(Packet):
    """Relative move (<= 8 blocks): id VarInt + 3 delta shorts + on-ground.

    This is the cheap movement packet vanilla servers prefer.
    """

    entity_id: int
    delta: Vec3
    yaw: float = 0.0
    pitch: float = 0.0

    MAX_DELTA = 8.0

    def body_size(self) -> int:
        return varint_size(self.entity_id) + 6 + 2 + 1

    @staticmethod
    def fits(delta: Vec3) -> bool:
        limit = EntityPositionPacket.MAX_DELTA
        return abs(delta.x) < limit and abs(delta.y) < limit and abs(delta.z) < limit


@dataclass(frozen=True, slots=True)
class EntityTeleportPacket(Packet):
    """Absolute move: id VarInt + 3 doubles (24) + angles (2) + on-ground."""

    entity_id: int
    position: Vec3
    yaw: float = 0.0
    pitch: float = 0.0

    def body_size(self) -> int:
        return varint_size(self.entity_id) + 24 + 2 + 1


@dataclass(frozen=True, slots=True)
class ChatMessagePacket(Packet):
    """JSON chat component; modelled as fixed JSON scaffolding + text."""

    sender_id: int
    text: str

    JSON_SCAFFOLD_BYTES = 40

    def body_size(self) -> int:
        return self.JSON_SCAFFOLD_BYTES + len(self.text.encode("utf-8")) + 1


@dataclass(frozen=True, slots=True)
class KeepAlivePacket(Packet):
    """Liveness probe: one long."""

    nonce: int = 0

    def body_size(self) -> int:
        return 8


@dataclass(frozen=True, slots=True)
class JoinGamePacket(Packet):
    """Login payload: entity id, gamemode, dimension codec (modelled)."""

    entity_id: int

    def body_size(self) -> int:
        return 1200  # dominated by the dimension/registry codec NBT


# ----------------------------------------------------------------------
# Client -> server
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PlayerActionPacket(Packet):
    """Client action: movement (3 doubles + angles + flags) or a block
    dig/place (packed position + face + status)."""

    action: str
    position: Vec3 | None = None
    block_pos: BlockPos | None = None
    block: BlockType | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def body_size(self) -> int:
        if self.action == "move":
            return 24 + 2 + 1
        if self.action in ("place", "dig"):
            return 8 + 1 + 1
        if self.action == "chat":
            return len(str(self.extra.get("text", "")).encode("utf-8")) + 1
        return 8
