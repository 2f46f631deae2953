"""Pluggable state stores (S19).

>>> from repro.backends import create_state_store
>>> store = create_state_store("sqlite")            # or "memory", "sqlite:///path"
>>> system = DyconitSystem(policy, state_store=store)

See :mod:`repro.backends.base` for the protocol and
:mod:`repro.backends.registry` for spec strings and registration.
"""

from repro.backends.base import (
    DyconitStateHandle,
    StateStore,
    SubscriptionSnapshot,
    snapshot_subscription,
)
from repro.backends.memory import InMemoryStateStore
from repro.backends.registry import (
    create_state_store,
    register_state_store,
    state_store_factories,
)
from repro.backends.sqlite_store import SQLiteStateStore

__all__ = [
    "DyconitStateHandle",
    "InMemoryStateStore",
    "SQLiteStateStore",
    "StateStore",
    "SubscriptionSnapshot",
    "create_state_store",
    "register_state_store",
    "snapshot_subscription",
    "state_store_factories",
]
