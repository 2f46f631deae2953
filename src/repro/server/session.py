"""Per-player session state."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.world.geometry import ChunkPos, Vec3

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.viewindex import ViewerIndex


class KnownEntityMap(dict):
    """``entity id -> last sent position`` with membership mirrored into a
    :class:`~repro.server.viewindex.ViewerIndex`.

    The codec and the interest manager add and drop replica entries on
    half a dozen paths; hooking the map's own mutators is what keeps the
    reverse ``entity -> knowers`` index *exactly* in lockstep (the
    indexed chunk-crossing fan-out relies on that for packet-for-packet
    equivalence with the brute-force scan). Unbound (``index is None``,
    the default) the map behaves as a plain dict.

    Only the mutators the session/codec actually use are hooked:
    ``[...] = ...``, ``pop`` and ``clear``. Value-only overwrites of an
    existing key (the per-move hot path) do not touch the index: the
    codec, which has just read the old value, makes them through
    :attr:`overwrite` and skips the hook altogether.
    """

    __slots__ = ("session", "index")

    #: ``overwrite(entity_id, position)`` for a key known to be present:
    #: membership is unchanged, so this is the plain dict store.
    overwrite = dict.__setitem__

    def __init__(self) -> None:
        super().__init__()
        self.session: PlayerSession | None = None
        self.index: ViewerIndex | None = None

    def bind(self, session: "PlayerSession", index: "ViewerIndex") -> None:
        """Attach the reverse index (and back-fill any existing entries)."""
        self.session = session
        self.index = index
        for entity_id in self:
            index.on_entity_known(entity_id, session)

    def __setitem__(self, entity_id: int, position: Vec3) -> None:
        index = self.index
        if index is not None and entity_id not in self:
            index.on_entity_known(entity_id, self.session)
        super().__setitem__(entity_id, position)

    def pop(self, entity_id: int, *default):
        index = self.index
        if index is not None and entity_id in self:
            index.on_entity_forgotten(entity_id, self.session)
        return super().pop(entity_id, *default)

    def __delitem__(self, entity_id: int) -> None:
        index = self.index
        if index is not None and entity_id in self:
            index.on_entity_forgotten(entity_id, self.session)
        super().__delitem__(entity_id)

    def clear(self) -> None:
        index = self.index
        if index is not None:
            for entity_id in self:
                index.on_entity_forgotten(entity_id, self.session)
        super().clear()


@dataclass
class PlayerSession:
    """Server-side state for one connected player.

    ``known_entities`` mirrors what the *client* currently knows: the last
    position sent for every entity in view. The codec uses it to choose
    relative-move vs teleport packets and to decide when a spawn packet
    must precede a movement update.
    """

    client_id: int
    entity_id: int
    name: str
    view_distance: int
    #: Chunks currently streamed to this client.
    view_chunks: set[ChunkPos] = field(default_factory=set)
    #: entity id -> last position sent to this client.
    known_entities: KnownEntityMap = field(default_factory=KnownEntityMap)
    #: entity id -> event time of the newest update applied for it. Used
    #: to drop stale updates when flushes from different dyconits arrive
    #: out of cross-dyconit order (per-entity last-writer-wins).
    entity_update_times: dict[int, float] = field(default_factory=dict)
    #: Chunk the player's avatar occupied at the last interest refresh.
    anchor_chunk: ChunkPos | None = None
    connected_at: float = 0.0
    actions_received: int = 0
    packets_sent: int = 0

    def sees_chunk(self, chunk: ChunkPos) -> bool:
        return chunk in self.view_chunks

    def forget_entity(self, entity_id: int) -> bool:
        """Drop an entity from the client's known set; True if it was known."""
        self.entity_update_times.pop(entity_id, None)
        return self.known_entities.pop(entity_id, None) is not None
