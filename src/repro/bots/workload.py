"""Workload orchestration.

A :class:`WorkloadSpec` describes a bot fleet declaratively (count,
movement model, behaviour mix, arrival process); :class:`Workload`
instantiates it against a server inside a simulation and runs the
inconsistency samplers the E3 experiment reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.metrics.collector import Histogram
from repro.sim.rng import derive_rng
from repro.sim.simulator import Simulation
from repro.world.geometry import Vec3
from repro.bots.bot import BotClient
from repro.bots.movement import (
    GatheringModel,
    HotspotModel,
    MovementModel,
    RandomWaypointModel,
    TrekModel,
)


@dataclass(frozen=True, slots=True)
class BehaviorMix:
    """Per-act probabilities of non-movement actions."""

    build: float = 0.0
    dig: float = 0.0
    chat: float = 0.0

    def __post_init__(self) -> None:
        total = self.build + self.dig + self.chat
        if total > 1.0 or min(self.build, self.dig, self.chat) < 0:
            raise ValueError(f"behavior probabilities must be >= 0 and sum <= 1, got {self}")


#: The mix used by the paper-style experiments: mostly walking with some
#: building/mining — the MVE-modification traffic that makes Minecraft-like
#: games hard for pure interest management.
BUILDER_MIX = BehaviorMix(build=0.05, dig=0.03, chat=0.002)
WALKER_MIX = BehaviorMix()


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Declarative description of a bot fleet."""

    bots: int = 50
    seed: int = 0
    movement: str = "hotspot"  # "hotspot" | "village" | "uniform" | "trek" | "gathering"
    behavior: BehaviorMix = field(default_factory=lambda: BUILDER_MIX)
    #: Delay between successive bot connects (0 = all at once).
    arrival_stagger_ms: float = 20.0
    #: Radius of the disc bots spawn in, centered on the main hotspot.
    spawn_radius: float = 48.0
    #: How often each bot samples its replica inconsistency (0 disables).
    measure_interval_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.bots < 0:
            raise ValueError(f"bot count must be >= 0, got {self.bots}")
        if self.movement not in ("hotspot", "village", "uniform", "trek", "gathering"):
            raise ValueError(f"unknown movement model {self.movement!r}")


#: Probability a churn step crashes somebody (vs doing nothing).
CRASH_PROBABILITY = 0.5


@dataclass(frozen=True, slots=True)
class ChurnSpec:
    """Seeded session-churn schedule (crash/rejoin).

    Every churn step (roughly every ``interval_ms``, uniformly jittered
    to stay aperiodic) one connected bot crashes with probability
    :data:`CRASH_PROBABILITY`, unless only one is left — an abrupt
    disconnect, no goodbye, pending updates dropped — and rejoins
    ``rejoin_delay_ms`` later as a fresh client under its old client id.
    The whole schedule is a pure function of the workload seed.
    """

    interval_ms: float = 1_000.0
    rejoin_delay_ms: float = 2_000.0
    #: Let the fleet settle before the first crash.
    start_after_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ValueError(f"churn interval must be positive, got {self.interval_ms}")
        if self.rejoin_delay_ms < 0 or self.start_after_ms < 0:
            raise ValueError("rejoin delay and start offset must be >= 0")


class Workload:
    """A running bot fleet plus its measurement state."""

    def __init__(self, sim: Simulation, server, spec: WorkloadSpec) -> None:
        self.sim = sim
        self.server = server
        self.spec = spec
        self.bots: list[BotClient] = []
        self.error_histogram = Histogram("positional_error_blocks", min_value=0.01)
        self.staleness_histogram = Histogram("replica_staleness_ms", min_value=0.1)
        self._measuring = False
        self._spawn_rng = derive_rng(spec.seed, "workload", "spawn")

    # ------------------------------------------------------------------
    # Fleet construction
    # ------------------------------------------------------------------

    def _movement_for(self, index: int) -> MovementModel:
        if self.spec.movement == "hotspot":
            return HotspotModel()
        if self.spec.movement == "village":
            # The paper's motivating high-density case: players stay packed
            # around one village center, so traffic is update-dominated
            # (little chunk churn) and interest management cannot filter it.
            return HotspotModel(
                hotspots=[Vec3(0.0, 0.0, 0.0)],
                gravity=0.95,
                hotspot_spread=10.0,
                wander_radius=12.0,
            )
        if self.spec.movement == "uniform":
            return RandomWaypointModel(radius=96.0)
        if self.spec.movement == "gathering":
            # Mass gathering at the world origin — always a shard-strip
            # boundary, so under a cluster the crowd straddles a border.
            return GatheringModel()
        # trek: fan bots out on distinct headings so they churn new chunks
        return TrekModel(heading_degrees=index * (360.0 / max(1, self.spec.bots)))

    def _spawn_position(self) -> Vec3:
        angle = self._spawn_rng.uniform(0.0, 2.0 * math.pi)
        distance = self.spec.spawn_radius * math.sqrt(self._spawn_rng.random())
        x = distance * math.cos(angle)
        z = distance * math.sin(angle)
        return self.server.world.surface_position(x, z)

    def start(self) -> None:
        """Create and connect the fleet (respecting the arrival stagger)."""
        for index in range(self.spec.bots):
            bot = BotClient(
                sim=self.sim,
                server=self.server,
                name=f"bot-{index:04d}",
                seed=self.spec.seed,
                movement=self._movement_for(index),
                build_probability=self.spec.behavior.build,
                dig_probability=self.spec.behavior.dig,
                chat_probability=self.spec.behavior.chat,
            )
            self.bots.append(bot)
            position = self._spawn_position()
            delay = index * self.spec.arrival_stagger_ms
            self.sim.schedule(delay, self._make_connector(bot, position))
        if self.spec.measure_interval_ms > 0:
            self._measuring = True
            self.sim.schedule(self.spec.measure_interval_ms, self._measure)

    def _make_connector(self, bot: BotClient, position: Vec3):
        def connector() -> None:
            bot.connect(position)

        return connector

    def add_bots(
        self, count: int, name_prefix: str = "burst", stagger_ms: float = 50.0
    ) -> list[BotClient]:
        """Connect ``count`` extra bots (burst workloads).

        Joins are staggered by ``stagger_ms`` — real login queues admit
        players one connection at a time, and an instantaneous mass join
        would charge one tick with the whole world-download burst.
        """
        added = []
        base = len(self.bots)
        for offset in range(count):
            bot = BotClient(
                sim=self.sim,
                server=self.server,
                name=f"{name_prefix}-{base + offset:04d}",
                seed=self.spec.seed,
                movement=self._movement_for(base + offset),
                build_probability=self.spec.behavior.build,
                dig_probability=self.spec.behavior.dig,
                chat_probability=self.spec.behavior.chat,
            )
            position = self._spawn_position()
            if stagger_ms > 0 and offset > 0:
                self.sim.schedule(offset * stagger_ms, self._make_connector(bot, position))
            else:
                bot.connect(position)
            self.bots.append(bot)
            added.append(bot)
        return added

    def remove_bots(self, count: int) -> int:
        """Disconnect up to ``count`` bots (newest first).

        Bots whose staggered connect has not fired yet are cancelled and
        count as removed.
        """
        removed = 0
        for bot in reversed(self.bots):
            if removed >= count:
                break
            if bot.connected:
                bot.disconnect()
                removed += 1
            elif not bot.cancelled:
                bot.cancelled = True
                removed += 1
        return removed

    def stop(self) -> None:
        self._measuring = False
        for bot in self.bots:
            bot.cancelled = True  # abort any connect still scheduled
            bot.disconnect()

    @property
    def connected_count(self) -> int:
        return sum(1 for bot in self.bots if bot.connected)

    # ------------------------------------------------------------------
    # Inconsistency sampling
    # ------------------------------------------------------------------

    def _measure(self) -> None:
        if not self._measuring:
            return
        now = self.sim.now
        for bot in self.bots:
            if not bot.connected:
                continue
            for error in bot.positional_errors():
                self.error_histogram.record(error)
            for age in bot.replica_staleness_ms(now):
                self.staleness_histogram.record(age)
        self.sim.schedule(self.spec.measure_interval_ms, self._measure)


class ChurnWorkload(Workload):
    """A bot fleet whose members crash and rejoin on a seeded schedule.

    The crash path is deliberately brutal: the victim's socket just
    closes (the server drops its pending updates, exactly like a player
    whose client process died), and the rejoin is a from-scratch session
    — the bot's perceived replica starts empty and the server rebuilds
    view chunks, entity replicas, and dyconit subscriptions as for any
    new player. The rejoin reuses the old client id, which is what
    flushes out stale in-flight-packet bugs.
    """

    def __init__(
        self, sim: Simulation, server, spec: WorkloadSpec,
        churn: ChurnSpec | None = None,
    ) -> None:
        super().__init__(sim, server, spec)
        self.churn = churn if churn is not None else ChurnSpec()
        self._churn_rng = derive_rng(spec.seed, "workload", "churn")
        self._churning = False
        self.crashes = 0
        self.rejoins = 0

    def start(self) -> None:
        super().start()
        self._churning = True
        self.sim.schedule(
            self.churn.start_after_ms + self._next_interval(), self._churn_step
        )

    def stop(self) -> None:
        self._churning = False
        super().stop()

    def _next_interval(self) -> float:
        # Uniform in [0.5, 1.5) x interval: seeded but aperiodic, so churn
        # never phase-locks with the tick or keepalive cadence.
        return self.churn.interval_ms * (0.5 + self._churn_rng.random())

    def _churn_step(self) -> None:
        if not self._churning:
            return
        connected = [bot for bot in self.bots if bot.connected]
        if len(connected) > 1 and self._churn_rng.random() < CRASH_PROBABILITY:
            victim = connected[self._churn_rng.randrange(len(connected))]
            victim.disconnect()
            self.crashes += 1
            self.sim.schedule(self.churn.rejoin_delay_ms, self._make_rejoiner(victim))
        self.sim.schedule(self._next_interval(), self._churn_step)

    def _make_rejoiner(self, bot: BotClient):
        def rejoin() -> None:
            if not self._churning or bot.cancelled or bot.connected:
                return
            bot.connect(self._spawn_position())
            self.rejoins += 1

        return rejoin
