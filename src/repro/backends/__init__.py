"""Pluggable state/event backends (S19).

>>> from repro.backends import create_state_store
>>> store = create_state_store("sqlite")            # or "memory", a URL, ...
>>> system = DyconitSystem(policy, state_store=store)

See :mod:`repro.backends.base` for the protocols and
:mod:`repro.backends.registry` for spec strings and registration.
"""

from repro.backends.base import (
    BackendUnavailable,
    DyconitStateHandle,
    EventBus,
    StateStore,
    SubscriptionSnapshot,
    snapshot_subscription,
)
from repro.backends.memory import BufferedEventBus, DirectEventBus, InMemoryStateStore
from repro.backends.pipeline import SpoolConsumer, SpoolEventBus
from repro.backends.postgres_store import POSTGRES_URL_ENV, PostgresStateStore
from repro.backends.registry import (
    create_event_bus,
    create_state_store,
    event_bus_factories,
    register_event_bus,
    register_state_store,
    state_store_factories,
)
from repro.backends.sqlite_store import SQLiteStateStore

__all__ = [
    "BackendUnavailable",
    "BufferedEventBus",
    "DirectEventBus",
    "DyconitStateHandle",
    "EventBus",
    "InMemoryStateStore",
    "POSTGRES_URL_ENV",
    "PostgresStateStore",
    "SQLiteStateStore",
    "SpoolConsumer",
    "SpoolEventBus",
    "StateStore",
    "SubscriptionSnapshot",
    "create_event_bus",
    "create_state_store",
    "event_bus_factories",
    "register_event_bus",
    "register_state_store",
    "snapshot_subscription",
    "state_store_factories",
]
