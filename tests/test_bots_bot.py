"""Behavioural tests for the bot client and its perceived replica."""

import pytest

from repro.bots.bot import BotClient, PerceivedWorld
from repro.bots.movement import RandomWaypointModel
from repro.net.protocol import (
    BlockChangePacket,
    ChunkDataPacket,
    ChunkUnloadPacket,
    DestroyEntitiesPacket,
    EntityPositionPacket,
    EntityTeleportPacket,
    KeepAlivePacket,
    MultiBlockChangePacket,
    SpawnEntityPacket,
)
from repro.net.transport import DeliveredPacket
from repro.policies.zero import ZeroBoundsPolicy
from repro.world.block import BlockType
from repro.world.entity import EntityKind
from repro.world.geometry import BlockPos, ChunkPos, Vec3


def delivered(packet, at=0.0):
    return DeliveredPacket(packet=packet, sent_at=at, delivered_at=at)


class TestPerceivedWorld:
    def test_spawn_then_relative_move(self):
        replica = PerceivedWorld()
        replica.apply(delivered(SpawnEntityPacket(7, EntityKind.COW, Vec3(1, 30, 1))))
        replica.apply(delivered(EntityPositionPacket(7, Vec3(0.5, 0.0, 0.5)), at=50.0))
        assert replica.entity_positions[7] == Vec3(1.5, 30.0, 1.5)
        assert replica.entity_last_update[7] == 50.0

    def test_move_for_unknown_entity_ignored(self):
        replica = PerceivedWorld()
        replica.apply(delivered(EntityPositionPacket(9, Vec3(1, 0, 0))))
        assert 9 not in replica.entity_positions

    def test_teleport_overrides(self):
        replica = PerceivedWorld()
        replica.apply(delivered(SpawnEntityPacket(7, EntityKind.COW, Vec3(0, 30, 0))))
        replica.apply(delivered(EntityTeleportPacket(7, Vec3(99, 30, 99))))
        assert replica.entity_positions[7] == Vec3(99, 30, 99)

    def test_destroy_removes(self):
        replica = PerceivedWorld()
        replica.apply(delivered(SpawnEntityPacket(7, EntityKind.COW, Vec3(0, 30, 0))))
        replica.apply(delivered(DestroyEntitiesPacket((7,))))
        assert replica.entity_positions == {}
        assert replica.entity_last_update == {}

    def test_block_overlay(self):
        replica = PerceivedWorld()
        replica.apply(
            delivered(BlockChangePacket(BlockPos(1, 30, 1), BlockType.BRICK))
        )
        assert replica.blocks[BlockPos(1, 30, 1)] == BlockType.BRICK

    def test_chunk_unload_forgets_overlay(self):
        replica = PerceivedWorld()
        replica.apply(delivered(ChunkDataPacket(ChunkPos(0, 0), 16384, 100)))
        replica.apply(delivered(BlockChangePacket(BlockPos(1, 30, 1), BlockType.BRICK)))
        replica.apply(delivered(ChunkUnloadPacket(ChunkPos(0, 0))))
        assert ChunkPos(0, 0) not in replica.loaded_chunks
        assert replica.blocks == {}

    @pytest.mark.parametrize("chunk", [ChunkPos(0, 0), ChunkPos(-1, -2), ChunkPos(3, -1)])
    def test_chunk_unload_drops_exactly_that_chunks_overlay(self, chunk):
        """Corners of the chunk and its eight neighbours' nearest blocks,
        negative coordinates included: only the chunk's own go."""
        replica = PerceivedWorld()
        x0, z0 = chunk.cx * 16, chunk.cz * 16
        inside = [BlockPos(x0 + dx, y, z0 + dz) for dx in (0, 15) for dz in (0, 15)
                  for y in (1, 90)]
        outside = [BlockPos(x0 + dx, 30, z0 + dz) for dx in (-1, 0, 15, 16)
                   for dz in (-1, 0, 15, 16) if dx in (-1, 16) or dz in (-1, 16)]
        for pos in inside + outside:
            assert (pos.to_chunk_pos() == chunk) == (pos in inside)
            replica.apply(delivered(BlockChangePacket(pos, BlockType.BRICK)))
        replica.apply(
            delivered(MultiBlockChangePacket(chunk, ((inside[0], BlockType.STONE),)))
        )
        replica.apply(delivered(ChunkUnloadPacket(chunk)))
        assert set(replica.blocks) == set(outside)

    def test_unknown_packets_are_ignored(self):
        replica = PerceivedWorld()
        replica.apply(delivered(KeepAlivePacket()))
        assert replica == PerceivedWorld()


class TestBotClient:
    @pytest.fixture
    def server(self, server_factory):
        return server_factory(policy=ZeroBoundsPolicy(), synchronous_delivery=True)

    def make_bot(self, sim, server, name="tester", **kwargs):
        return BotClient(
            sim, server, name=name, seed=5,
            movement=RandomWaypointModel(radius=30.0), **kwargs
        )

    def test_connect_registers_session(self, sim, server):
        bot = self.make_bot(sim, server)
        bot.connect()
        assert bot.connected
        assert bot.client_id in server.sessions
        assert server.world.get_entity(bot.entity_id) is not None

    def test_double_connect_rejected(self, sim, server):
        bot = self.make_bot(sim, server)
        bot.connect()
        with pytest.raises(RuntimeError):
            bot.connect()

    def test_bot_moves_the_avatar(self, sim, server):
        bot = self.make_bot(sim, server)
        bot.connect()
        start = server.world.get_entity(bot.entity_id).position
        sim.run_until(sim.now + 3_000.0)
        end = server.world.get_entity(bot.entity_id).position
        assert start.horizontal_distance_to(end) > 1.0

    def test_bot_speed_is_bounded_by_walk_speed(self, sim, server):
        bot = self.make_bot(sim, server)
        bot.connect()
        start = server.world.get_entity(bot.entity_id).position
        sim.run_until(sim.now + 2_000.0)
        end = server.world.get_entity(bot.entity_id).position
        assert start.horizontal_distance_to(end) <= 4.317 * 2.1

    def test_builder_bot_places_blocks(self, sim, server):
        bot = self.make_bot(sim, server, build_probability=1.0)
        bot.connect()
        sim.run_until(sim.now + 2_000.0)
        assert bot.blocks_placed > 0

    def test_two_bots_see_each_other(self, sim, server):
        a = self.make_bot(sim, server, "a")
        b = self.make_bot(sim, server, "b")
        a.connect(position=server.world.surface_position(8.0, 8.0))
        b.connect(position=server.world.surface_position(12.0, 12.0))
        sim.run_until(sim.now + 1_000.0)
        assert b.entity_id in a.perceived.entity_positions
        assert a.entity_id in b.perceived.entity_positions

    def test_zero_bounds_perception_is_fresh(self, sim, server):
        """Under zero bounds the replica lags only by network latency:
        positional error stays within one act step."""
        a = self.make_bot(sim, server, "a")
        b = self.make_bot(sim, server, "b")
        a.connect(position=server.world.surface_position(8.0, 8.0))
        b.connect(position=server.world.surface_position(12.0, 12.0))
        sim.run_until(sim.now + 5_000.0)
        errors = a.positional_errors()
        assert errors and max(errors) < 2.0

    def test_disconnect_stops_acting(self, sim, server):
        bot = self.make_bot(sim, server)
        bot.connect()
        sim.run_until(sim.now + 500.0)
        bot.disconnect()
        count = server.player_count
        sim.run_until(sim.now + 1_000.0)
        assert server.player_count == count == 0

    def test_decisions_independent_of_traffic(self, sim, server_factory):
        """The same bot seed produces the same walk regardless of policy —
        the workload-equivalence property experiments rely on."""
        from repro.policies.infinite import InfiniteBoundsPolicy
        from repro.sim.simulator import Simulation

        def trajectory(policy):
            local_sim = Simulation()
            from repro.server.config import ServerConfig
            from repro.server.engine import GameServer
            from repro.world.world import World

            server = GameServer(
                local_sim, world=World(seed=1234),
                config=ServerConfig(seed=1234, synchronous_delivery=True),
                policy=policy,
            )
            server.start()
            bot = BotClient(local_sim, server, name="t", seed=5,
                            movement=RandomWaypointModel(radius=30.0))
            bot.connect(position=server.world.surface_position(8.0, 8.0))
            local_sim.run_until(3_000.0)
            entity = server.world.get_entity(bot.entity_id)
            return (entity.position.x, entity.position.z)

        assert trajectory(ZeroBoundsPolicy()) == trajectory(InfiniteBoundsPolicy())
