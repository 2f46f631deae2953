"""Shared fixtures for the test suite."""

from __future__ import annotations

import math
import os
import sqlite3
from contextlib import contextmanager

import pytest

from repro.backends import InMemoryStateStore, register_state_store
from repro.backends.postgres_store import POSTGRES
from repro.backends.sqlite_store import SQLRowStore
from repro.core.dyconit import Dyconit
from repro.core.manager import DyconitSystem
from repro.core.subscription import Subscriber
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.interest import InterestManager
from repro.sim.simulator import Simulation
from repro.world.world import World


class PerObjectStateStore(InMemoryStateStore):
    """The differential reference: every dyconit keeps per-object
    ``SubscriptionState``s, so the manager's ``_flat is None`` commit walk
    runs with no row store underneath. ``state_store="per-object"``
    selects it; the product has no option that does."""

    name = "per-object"

    def create_dyconit_state(self, dyconit_id, *, merging):
        return Dyconit(dyconit_id, merging=merging, flat=False)


register_state_store("per-object", PerObjectStateStore)


class SqliteAsPsycopg:
    """A psycopg-3-shaped connection over ``sqlite3``: ``%s`` becomes
    ``?`` and nothing else is translated (sqlite accepts the Postgres
    column types). A statement still carrying a bare ``?`` did not go
    through the dialect, and is refused."""

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:", isolation_level=None)

    def execute(self, sql: str, params=()):
        if "?" in sql:
            raise AssertionError(f"statement bypassed the dialect: {sql}")
        return self._conn.execute(sql.replace("%s", "?"), params)

    def close(self) -> None:
        self._conn.close()


class PostgresDialectStore(SQLRowStore):
    """The Postgres dialect of the row store, runnable without a server:
    registered, so the contract suite holds it to every row."""

    name = "postgres-dialect"

    def __init__(self) -> None:
        super().__init__(SqliteAsPsycopg(), POSTGRES)


register_state_store("postgres-dialect", PostgresDialectStore)


@pytest.fixture
def scan_fanout(monkeypatch):
    """``with scan_fanout():`` — servers built inside run the brute-force
    fan-out references (``_broadcast_direct_scan``,
    ``on_entity_crossed_scan``) in place of the viewer-index paths."""

    @contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(
                GameServer, "_broadcast_direct", GameServer._broadcast_direct_scan
            )
            patch.setattr(
                InterestManager,
                "on_entity_crossed",
                InterestManager.on_entity_crossed_scan,
            )
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
