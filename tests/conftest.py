"""Shared fixtures for the test suite."""

from __future__ import annotations

import math
import os
import sqlite3
from contextlib import contextmanager

import numpy as np
import pytest

from repro.backends import InMemoryStateStore, register_state_store
from repro.backends.base import DyconitStateHandle
from repro.backends.postgres_store import POSTGRES
from repro.backends.sqlite_store import SQLRowStore
from repro.cluster.shard import ShardServer
from repro.core.bounds import Bounds
from repro.core.dyconit import SubscriptionState
from repro.core.manager import DyconitSystem
from repro.core.partition import GLOBAL_DYCONIT, centroid_of
from repro.core.policy import PairTable, Policy, xz_rows
from repro.core.subscription import Subscriber
from repro.metrics.collector import Histogram
from repro.net.protocol import (
    BlockChangePacket,
    ChatMessagePacket,
    DestroyEntitiesPacket,
    MultiBlockChangePacket,
    SpawnEntityPacket,
)
from repro.policies import (
    AdaptiveBoundsPolicy,
    DistanceBasedPolicy,
    ElasticPartitioningPolicy,
    FixedBoundsPolicy,
    InfiniteBoundsPolicy,
    InterestCutoffPolicy,
)
from repro.server.codec import SessionCodec, _move_packet
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.interest import InterestManager
from repro.sim.rng import derive_rng, derive_seed
from repro.sim.simulator import Simulation
from repro.world.block import BlockType
from repro.world.chunk import WORLD_HEIGHT
from repro.world.events import (
    BlockChangeEvent,
    ChatEvent,
    EntityDespawnEvent,
    EntityMoveEvent,
    EntitySpawnEvent,
)
from repro.world.geometry import CHUNK_SIZE, ChunkPos
from repro.world.terrain import SEA_LEVEL
from repro.world.world import World


class PerObjectDyconit(DyconitStateHandle):
    """The differential reference for a dyconit: one
    :class:`SubscriptionState` object per subscriber, and the batched
    surface as walks over them — the same rules one state at a time, the
    reference the product's columns (:class:`~repro.core.dyconit.Dyconit`)
    and the SQL row store are held to."""

    def __init__(self, dyconit_id, default_bounds=Bounds.ZERO, merging=True):
        self.dyconit_id = dyconit_id
        self.default_bounds = default_bounds
        self.merging = merging
        self._subscriptions: dict[int, SubscriptionState] = {}
        self.total_committed_weight = 0.0
        self.commit_count = 0

    @property
    def subscriber_count(self) -> int:
        return len(self._subscriptions)

    def subscriber_ids(self):
        return np.fromiter(self._subscriptions, np.int64, len(self._subscriptions))

    def subscription_states(self) -> list[SubscriptionState]:
        return list(self._subscriptions.values())

    def is_subscribed(self, subscriber_id: int) -> bool:
        return subscriber_id in self._subscriptions

    def subscribe(self, subscriber: Subscriber, bounds=None) -> SubscriptionState:
        state = self._subscriptions.get(subscriber.subscriber_id)
        if state is not None:
            if bounds is not None:
                state.bounds = bounds
            return state
        state = SubscriptionState(
            subscriber=subscriber,
            bounds=bounds if bounds is not None else self.default_bounds,
            merging=self.merging,
        )
        self._subscriptions[subscriber.subscriber_id] = state
        return state

    def unsubscribe(self, subscriber_id: int) -> SubscriptionState | None:
        return self._subscriptions.pop(subscriber_id, None)

    def get_state(self, subscriber_id: int) -> SubscriptionState | None:
        return self._subscriptions.get(subscriber_id)

    def restore_subscription(self, subscriber: Subscriber, snap) -> SubscriptionState:
        if self.is_subscribed(subscriber.subscriber_id):
            raise ValueError(
                f"subscriber {subscriber.subscriber_id} already subscribed "
                f"to {self.dyconit_id!r}"
            )
        state = SubscriptionState(
            subscriber=subscriber,
            bounds=snap.bounds,
            pending=dict(snap.pending),
            accumulated_error=snap.accumulated_error,
            oldest_pending_time=snap.oldest_pending_time,
            enqueued_count=snap.enqueued_count,
            merged_count=snap.merged_count,
            merging=snap.merging,
        )
        self._subscriptions[subscriber.subscriber_id] = state
        return state

    def set_bounds(self, subscriber_id: int, bounds) -> None:
        state = self._subscriptions.get(subscriber_id)
        if state is None:
            raise KeyError(
                f"subscriber {subscriber_id} is not subscribed to {self.dyconit_id}"
            )
        state.bounds = bounds

    def commit(self, update, exclude_subscriber, now):
        n_enqueued = n_merged = 0
        became_due = math.inf
        flushed = []
        for state in self._subscriptions.values():
            if state.subscriber.subscriber_id == exclude_subscriber:
                continue
            result = state.enqueue(update)
            n_enqueued += 1
            n_merged += result.superseded
            reason = state.tripped_dimension(now)
            if reason is not None:
                flushed.append((state.subscriber, reason, state.drain()))
            elif result.became_pending:
                became_due = min(became_due, update.time + state.bounds.staleness_ms)
        if n_enqueued:
            self.total_committed_weight += update.weight
            self.commit_count += 1
        return n_enqueued, n_merged, became_due, flushed or None

    def drain_due(self, now):
        examined = 0
        due = []
        next_deadline = math.inf
        for state in self._subscriptions.values():
            oldest = state.oldest_pending_time
            if oldest is None:
                continue
            examined += 1
            deadline = oldest + state.bounds.staleness_ms
            if deadline <= now:
                due.append((state.subscriber, deadline, state.drain()))
            elif deadline < next_deadline:
                next_deadline = deadline
        return examined, due, next_deadline

    def rebound(self, slots, bounds, check_order=True):
        states = list(self._subscriptions.values())
        chosen = [states[slot] for slot in slots]
        for state, row in zip(chosen, zip(*bounds.tolist())):
            state.bounds = Bounds(*row)
        if not any(state.has_pending for state in chosen):
            return None
        error = np.array([state.accumulated_error for state in chosen], dtype=np.float64)
        oldest = np.array(
            [
                math.inf if state.oldest_pending_time is None else state.oldest_pending_time
                for state in chosen
            ],
            dtype=np.float64,
        )
        counts = None
        if check_order:
            counts = np.array([len(state.pending) for state in chosen], dtype=np.int64)
        return error, oldest, counts

    def drain_slots(self, slots):
        states = list(self._subscriptions.values())
        return [(states[slot].subscriber, states[slot].drain()) for slot in slots]

    def rebound_one(self, subscriber_id, numerical, staleness, order, now):
        state = self._subscriptions.get(subscriber_id)
        if state is None:
            return 0, None, None, math.inf
        state.bounds = Bounds(numerical, staleness, order)
        oldest = state.oldest_pending_time
        if oldest is None:
            return 0, None, None, math.inf
        reason = state.tripped_dimension(now)
        if reason is None:
            return 1, None, None, oldest + staleness
        return 1, reason, state.drain(), math.inf

    def __repr__(self) -> str:
        return (
            f"PerObjectDyconit({self.dyconit_id!r}, subscribers={self.subscriber_count}, "
            f"commits={self.commit_count})"
        )


class PerObjectStateStore(InMemoryStateStore):
    """The differential reference store: every dyconit is a
    :class:`PerObjectDyconit`, so the per-object walks run with no
    columns and no row store underneath. ``state_store="per-object"``
    selects it; the product has no option that does."""

    name = "per-object"

    def create_dyconit_state(self, dyconit_id, *, merging):
        return PerObjectDyconit(dyconit_id, merging=merging)


register_state_store("per-object", PerObjectStateStore)


class SqliteAsPsycopg:
    """A psycopg-3-shaped connection over ``sqlite3``: ``%s`` becomes
    ``?`` and nothing else is translated (sqlite accepts the Postgres
    column types). A statement still carrying a bare ``?`` did not go
    through the dialect, and is refused."""

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:", isolation_level=None)

    def execute(self, sql: str, params=()):
        return self._conn.execute(_from_dialect(sql), params)

    def cursor(self):
        return self

    def executemany(self, sql: str, rows):
        return self._conn.executemany(_from_dialect(sql), rows)

    def close(self) -> None:
        self._conn.close()


def _from_dialect(sql: str) -> str:
    if "?" in sql:
        raise AssertionError(f"statement bypassed the dialect: {sql}")
    return sql.replace("%s", "?")


class PostgresDialectStore(SQLRowStore):
    """The Postgres dialect of the row store, runnable without a server:
    registered, so the contract suite holds it to every row."""

    name = "postgres-dialect"

    def __init__(self) -> None:
        super().__init__(SqliteAsPsycopg(), POSTGRES)


register_state_store("postgres-dialect", PostgresDialectStore)


def _reference_lattice_values(seed: int, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    x64 = xs.astype(np.uint64)
    z64 = zs.astype(np.uint64)
    h = x64 * np.uint64(0x9E3779B97F4A7C15) ^ z64 * np.uint64(0xC2B2AE3D27D4EB4F)
    h ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _reference_value_noise(
    seed: int, xs: np.ndarray, zs: np.ndarray, period: float
) -> np.ndarray:
    gx = xs / period
    gz = zs / period
    x0 = np.floor(gx).astype(np.int64)
    z0 = np.floor(gz).astype(np.int64)
    fx = gx - x0
    fz = gz - z0
    fx = fx * fx * (3.0 - 2.0 * fx)
    fz = fz * fz * (3.0 - 2.0 * fz)
    v00 = _reference_lattice_values(seed, x0, z0)
    v10 = _reference_lattice_values(seed, x0 + 1, z0)
    v01 = _reference_lattice_values(seed, x0, z0 + 1)
    v11 = _reference_lattice_values(seed, x0 + 1, z0 + 1)
    top = v00 * (1.0 - fx) + v10 * fx
    bottom = v01 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fz) + bottom * fz


class DenseTerrainReference:
    """The differential reference for terrain: the generator as it was when
    every chunk kept a dense ``16 x WORLD_HEIGHT x 16`` array — a
    meshgrid heightmap hashed four times per octave, layers written by
    boolean masks, trees stamped into the array in planting order.
    ``generate`` returns that array; the product's chunks must read
    identically cell for cell."""

    OCTAVES = ((1.0, 96.0), (0.5, 48.0), (0.25, 16.0))
    MIN_HEIGHT = 12
    MAX_HEIGHT = 44
    TREE_DENSITY = 0.004

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._noise_seed = derive_seed(seed, "terrain", "height")

    def height_at(self, x: int, z: int) -> int:
        xs = np.array([[x]], dtype=np.int64)
        zs = np.array([[z]], dtype=np.int64)
        return int(self._heightmap(xs, zs)[0, 0])

    def generate(self, pos: ChunkPos) -> np.ndarray:
        origin = pos.block_origin()
        xs, zs = np.meshgrid(
            np.arange(origin.x, origin.x + CHUNK_SIZE, dtype=np.int64),
            np.arange(origin.z, origin.z + CHUNK_SIZE, dtype=np.int64),
            indexing="ij",
        )
        heights = self._heightmap(xs, zs)

        blocks = np.zeros((CHUNK_SIZE, WORLD_HEIGHT, CHUNK_SIZE), dtype=np.uint16)
        ys = np.arange(WORLD_HEIGHT)[None, :, None]
        surface = heights[:, None, :]

        blocks[np.broadcast_to(ys == 0, blocks.shape)] = int(BlockType.BEDROCK)
        stone = np.broadcast_to(ys >= 1, blocks.shape) & (ys < surface - 3)
        dirt = (ys >= surface - 3) & (ys < surface)
        top = np.broadcast_to(ys, blocks.shape) == surface
        water = (ys > surface) & np.broadcast_to(ys <= SEA_LEVEL, blocks.shape)
        blocks[stone] = int(BlockType.STONE)
        blocks[dirt] = int(BlockType.DIRT)

        beach = surface <= SEA_LEVEL + 1
        top_sand = top & np.broadcast_to(beach, top.shape)
        top_grass = top & ~np.broadcast_to(beach, top.shape)
        blocks[top_sand] = int(BlockType.SAND)
        blocks[top_grass] = int(BlockType.GRASS)
        blocks[water] = int(BlockType.WATER)

        self._plant_trees(pos, blocks, heights)
        return blocks

    def _heightmap(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        total = np.zeros(xs.shape, dtype=np.float64)
        amplitude_sum = 0.0
        for index, (amplitude, period) in enumerate(self.OCTAVES):
            octave_seed = derive_seed(self._noise_seed, "octave", index)
            total += amplitude * _reference_value_noise(octave_seed, xs, zs, period)
            amplitude_sum += amplitude
        normalized = total / amplitude_sum
        span = self.MAX_HEIGHT - self.MIN_HEIGHT
        return (self.MIN_HEIGHT + normalized * span).astype(np.int64)

    def _plant_trees(self, pos: ChunkPos, blocks: np.ndarray, heights: np.ndarray) -> None:
        rng = derive_rng(self.seed, "terrain", "trees", pos.cx, pos.cz)
        for lx in range(2, CHUNK_SIZE - 2):
            for lz in range(2, CHUNK_SIZE - 2):
                surface = int(heights[lx, lz])
                if surface <= SEA_LEVEL + 1 or surface + 6 >= WORLD_HEIGHT:
                    continue
                if rng.random() >= self.TREE_DENSITY * CHUNK_SIZE:
                    continue
                trunk_height = rng.randint(3, 5)
                for dy in range(1, trunk_height + 1):
                    blocks[lx, surface + dy, lz] = int(BlockType.WOOD)
                canopy_y = surface + trunk_height
                for dx in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        for dy in (0, 1):
                            if dx == 0 and dz == 0 and dy == 0:
                                continue
                            blocks[lx + dx, canopy_y + dy, lz + dz] = int(BlockType.LEAVES)


def broadcast_direct_scan(server: GameServer, event, exclude: int | None) -> None:
    """The differential reference for ``GameServer._broadcast_direct``:
    scan every session and filter by ``sees_chunk``, one encode per
    session — no viewer index, no shared move packet."""
    chunk = event.chunk_pos
    segments = ((None, (event,)),)
    for session in server.sessions.values():
        if session.client_id == exclude:
            continue
        if chunk is not None and not session.sees_chunk(chunk):
            continue
        packets = server.codec.encode(session, segments)
        if packets:
            server.send_packets(session, packets)


def on_entity_crossed_scan(
    interest: InterestManager, entity_id: int, old_chunk: ChunkPos, new_chunk: ChunkPos
) -> None:
    """The differential reference for ``InterestManager.on_entity_crossed``:
    visit every session, O(players) per crossing."""
    server = interest.server
    for session in server.sessions.values():
        if session.entity_id == entity_id:
            continue
        if not session.sees_chunk(new_chunk):
            if session.forget_entity(entity_id):
                server.send_packets(
                    session, [DestroyEntitiesPacket(entity_ids=(entity_id,))]
                )
        elif entity_id not in session.known_entities:
            packet = server.codec.encode_entity_snapshot(session, entity_id)
            if packet is not None:
                server.send_packets(session, [packet])


@pytest.fixture
def scan_fanout(monkeypatch):
    """``with scan_fanout():`` — servers built inside run the brute-force
    fan-out references (:func:`broadcast_direct_scan`,
    :func:`on_entity_crossed_scan`) in place of the viewer-index paths."""

    @contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(GameServer, "_broadcast_direct", broadcast_direct_scan)
            patch.setattr(InterestManager, "on_entity_crossed", on_entity_crossed_scan)
            yield

    return patched


def reference_encode(codec: SessionCodec, session, segments) -> list:
    """The differential reference for delivery encoding: every segment
    encoded on its own, every move packet built afresh for every session
    — the codec as it was before the move memo. Shares nothing with the
    product's encode but ``_move_packet``."""
    packets: list = []
    for __, updates in segments:
        packets += _reference_encode_segment(codec, session, updates)
    return packets


def _reference_encode_segment(codec: SessionCodec, session, updates) -> list:
    packets: list = []
    block_changes: dict = {}
    despawned: list[int] = []
    for update in updates:
        kind = type(update)
        if kind is EntityMoveEvent:
            packet = _reference_encode_move(codec, session, update)
            if packet is not None:
                packets.append(packet)
        elif kind is BlockChangeEvent:
            chunk = update.pos.to_chunk_pos()
            if not session.sees_chunk(chunk):
                continue
            block_changes.setdefault(chunk, {})[update.pos] = update.new_block
        elif kind is EntitySpawnEvent:
            if update.entity_id == session.entity_id:
                continue
            if not session.sees_chunk(update.position.to_chunk_pos()):
                continue
            last_time = session.entity_update_times.get(update.entity_id)
            if last_time is not None and update.time < last_time:
                continue
            if update.entity_id not in session.known_entities:
                session.entity_update_times[update.entity_id] = update.time
                session.known_entities[update.entity_id] = update.position
                packets.append(
                    SpawnEntityPacket(
                        entity_id=update.entity_id,
                        entity_kind=update.kind,
                        position=update.position,
                        name=update.name,
                    )
                )
        elif kind is EntityDespawnEvent:
            if session.forget_entity(update.entity_id):
                despawned.append(update.entity_id)
        elif kind is ChatEvent:
            packets.append(ChatMessagePacket(sender_id=update.sender_id, text=update.text))
    for chunk, changes in block_changes.items():
        if len(changes) == 1:
            pos, block = next(iter(changes.items()))
            packets.append(BlockChangePacket(pos=pos, block=block))
        else:
            packets.append(
                MultiBlockChangePacket(
                    chunk=chunk, changes=tuple(sorted(changes.items(), key=str))
                )
            )
    if despawned:
        packets.append(DestroyEntitiesPacket(entity_ids=tuple(despawned)))
    return packets


def _reference_encode_move(codec: SessionCodec, session, update):
    if update.entity_id == session.entity_id:
        return None
    last_time = session.entity_update_times.get(update.entity_id)
    if last_time is not None and update.time < last_time:
        return None
    session.entity_update_times[update.entity_id] = update.time
    if not session.sees_chunk(update.new_position.to_chunk_pos()):
        if session.forget_entity(update.entity_id):
            return DestroyEntitiesPacket(entity_ids=(update.entity_id,))
        return None
    last_sent = session.known_entities.get(update.entity_id)
    if last_sent is None:
        entity = codec.world.get_entity(update.entity_id)
        if entity is None:
            session.entity_update_times.pop(update.entity_id, None)
            return None
        session.known_entities[update.entity_id] = update.new_position
        return SpawnEntityPacket(
            entity_id=update.entity_id,
            entity_kind=entity.kind,
            position=update.new_position,
            name=entity.name,
        )
    session.known_entities.overwrite(update.entity_id, update.new_position)
    return _move_packet(update, last_sent)


def _record_each(histogram: Histogram, values) -> None:
    for value in values:
        histogram.record(value)


@pytest.fixture
def reference_delivery(monkeypatch):
    """``with reference_delivery():`` — servers delivering inside encode
    with :func:`reference_encode` and record queue delays one
    ``Histogram.record`` at a time."""

    @contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(SessionCodec, "encode", reference_encode)
            patch.setattr(Histogram, "record_many", _record_each)
            yield

    return patched


def per_message_round(shard: ShardServer, segment) -> int:
    """The differential reference for a bus round: every message applied
    on its own through ``_on_bus_message``, uncorked (one frame per
    packet), each record batch in its own commit batch — a shard's bus
    inbound before a round landed as one unit."""
    applied = 0
    for src, messages in segment:
        for message in messages:
            shard._on_bus_message(src, message)
            applied += 1
    return applied


@pytest.fixture
def per_message_rounds(monkeypatch):
    """``with per_message_rounds():`` — shards deliver bus rounds through
    :func:`per_message_round` in place of ``ShardServer.deliver_round``."""

    @contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(ShardServer, "deliver_round", per_message_round)
            yield

    return patched


def naive_flush_due(system: DyconitSystem, now: float) -> int:
    """Reference due pass: every dyconit, every pending state, ``oldest +
    staleness <= now``; flushed one queue at a time, subscribers in
    registration order, each one's queues by (deadline, position of the
    dyconit in the subscriber's membership order). Shares nothing with
    the product's pass but the rule; leaves ``_due_at`` exact."""
    due: dict[int, list] = {}
    for dyconit_id, dyconit in system._dyconits.items():
        next_deadline = math.inf
        for state in dyconit.subscription_states():
            oldest = state.oldest_pending_time
            if oldest is None:
                continue
            system.stats.bound_checks += 1
            deadline = oldest + state.bounds.staleness_ms
            if deadline <= now:
                due.setdefault(state.subscriber.subscriber_id, []).append(
                    (deadline, dyconit_id, state)
                )
            else:
                next_deadline = min(next_deadline, deadline)
        system._due_at.pop(dyconit_id, None)
        if next_deadline < math.inf:
            system._due_at[dyconit_id] = next_deadline
    flushed = 0
    for subscriber_id in list(system._subscribers):
        membership = list(system._subscriptions_by_subscriber[subscriber_id])
        queues = due.get(subscriber_id, [])
        queues.sort(key=lambda queue: (queue[0], membership.index(queue[1])))
        for __, dyconit_id, state in queues:
            system._deliver(dyconit_id, state, reason="staleness")
            flushed += 1
    return flushed


@pytest.fixture
def naive_due_pass(monkeypatch):
    """``with naive_due_pass():`` — systems ticking inside run
    :func:`naive_flush_due` in place of ``DyconitSystem._flush_due``."""

    @contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(DyconitSystem, "_flush_due", naive_flush_due)
            yield

    return patched


@pytest.fixture(autouse=True)
def _checked_mode_from_env(monkeypatch):
    """Run the whole suite under checked mode (S15) on demand.

    ``REPRO_AUDIT_EVERY_N_TICKS=N`` makes every server the suite builds
    audit its invariants every N ticks, without touching a single test:
    it overrides the engine's fallback period, which only applies when a
    test did not ask for auditing itself. CI runs the suite once plain
    and once with this set to 1.
    """
    period = int(os.environ.get("REPRO_AUDIT_EVERY_N_TICKS", "0"))
    if period > 0:
        from repro.server import engine

        monkeypatch.setattr(engine, "AUDIT_DEFAULT_EVERY_N_TICKS", period)


@pytest.fixture
def sim() -> Simulation:
    return Simulation()


@pytest.fixture
def world() -> World:
    return World(seed=1234)


@pytest.fixture
def server_factory(sim):
    """Factory building a started server inside the shared simulation."""

    def build(policy=None, direct_mode=False, **config_kwargs) -> GameServer:
        config = ServerConfig(seed=1234, **config_kwargs)
        server = GameServer(
            sim,
            world=World(seed=1234),
            config=config,
            policy=policy,
            direct_mode=direct_mode,
        )
        server.start()
        return server

    return build


class RecordingSubscriber:
    """A subscriber that records everything delivered to it:
    ``deliveries`` holds one ``(dyconit id, updates)`` per segment."""

    def __init__(self, subscriber_id: int = 1, position=None):
        self.deliveries: list[tuple[object, list]] = []
        self.subscriber = Subscriber(
            subscriber_id=subscriber_id,
            deliver=lambda segments: self.deliveries.extend(
                (dyconit_id, list(updates)) for dyconit_id, updates in segments
            ),
            position_provider=(lambda: position) if position is not None else None,
        )

    @property
    def delivered_updates(self) -> list:
        return [update for __, updates in self.deliveries for update in updates]


@pytest.fixture
def recording_subscriber() -> RecordingSubscriber:
    return RecordingSubscriber()


# ----------------------------------------------------------------------
# The spatial policies' scalar bound formulas: the oracle the product's
# ``bounds_columns`` is held to bit for bit (S35)
# ----------------------------------------------------------------------


def distance_bounds_at(policy: DistanceBasedPolicy, chunk_distance: float) -> Bounds:
    """``DistanceBasedPolicy``'s bound surface at one chunk distance."""
    if chunk_distance <= 0:
        return Bounds.ZERO
    staleness_ms = policy.staleness_per_chunk_ms * chunk_distance
    numerical = max(
        policy.numerical_per_chunk * chunk_distance**policy.numerical_exponent,
        policy.numerical_weight_rate * staleness_ms / 1000.0,
    )
    return Bounds(numerical=numerical, staleness_ms=staleness_ms)


def pair_table(dyconit_ids, positions) -> PairTable:
    """The pairs ``zip(dyconit_ids, positions)`` as a :class:`PairTable`:
    each distinct id one row, each distinct position object (``None``
    too) one row, as the retune shares them."""
    ids = {dyconit_id: None for dyconit_id in dyconit_ids}
    id_row = {dyconit_id: row for row, dyconit_id in enumerate(ids)}
    unique = {id(position): position for position in positions}
    position_row = {key: row for row, key in enumerate(unique)}
    return PairTable(
        list(ids),
        np.array([id_row[dyconit_id] for dyconit_id in dyconit_ids], dtype=np.intp),
        xz_rows(unique.values()),
        np.array([position_row[id(position)] for position in positions], dtype=np.intp),
    )


def columns_as_bounds(columns) -> list[Bounds]:
    """``(numerical, staleness, order)`` columns as one ``Bounds`` per row."""
    return [Bounds(*row) for row in zip(*(column.tolist() for column in columns))]


def oracle_bounds(policy: Policy, system: DyconitSystem, dyconit_id, position) -> Bounds:
    """One (dyconit, subscriber position) pair's bounds under ``policy``,
    as the scalar formula states them: parse the id, build its centre,
    measure with ``Vec3.horizontal_distance_to``."""
    if isinstance(policy, ElasticPartitioningPolicy):
        return oracle_bounds(policy.inner, system, dyconit_id, position)
    if isinstance(policy, AdaptiveBoundsPolicy):
        base = oracle_bounds(policy.shape, system, dyconit_id, position)
        if base.is_zero or base.is_infinite:
            return base
        return base.scaled(policy.factor)
    if isinstance(policy, FixedBoundsPolicy):
        return policy.bounds
    if isinstance(policy, InfiniteBoundsPolicy):
        return Bounds.INFINITE
    if not isinstance(policy, (InterestCutoffPolicy, DistanceBasedPolicy)):
        return Bounds.ZERO  # the base policy's, and ZeroBoundsPolicy's
    centroid = None
    if dyconit_id != GLOBAL_DYCONIT:
        centroid = centroid_of(dyconit_id, system.partitioner)
    if isinstance(policy, InterestCutoffPolicy):
        if centroid is None or position is None:
            return Bounds.ZERO  # chat is always delivered
        distance_chunks = position.horizontal_distance_to(centroid) / CHUNK_SIZE
        if distance_chunks <= policy.aoi_radius_chunks + 0.5:
            return Bounds.ZERO
        return Bounds.INFINITE
    if centroid is None or position is None:
        return policy.global_bounds
    distance_blocks = position.horizontal_distance_to(centroid)
    chunk_distance = max(policy.min_chunk_distance, distance_blocks / CHUNK_SIZE - 0.5)
    return distance_bounds_at(policy, chunk_distance)
