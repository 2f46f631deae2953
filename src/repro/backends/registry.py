"""State-store registry and spec resolution.

Stores register a *factory* under a name; systems are configured with
a **spec** — either an already-constructed store instance or a string:

* ``"memory"`` — in-memory store (the default; byte-identical legacy
  behaviour);
* ``"sqlite"`` — SQLite store in ``:memory:``;
* ``"sqlite:///path/to.db"`` — SQLite store on disk;
* ``"postgres"`` / ``"postgres://..."`` / ``"postgresql://..."`` — the
  same row store on a Postgres server named by the URL or
  ``REPRO_POSTGRES_URL`` (requires the ``psycopg`` driver and a
  reachable server, else
  :class:`~repro.backends.base.BackendUnavailable`).

The conformance suite iterates :func:`state_store_factories`, so
registering a new store is all it takes to put it under the full
contract.
"""

from __future__ import annotations

from typing import Callable

from repro.backends.base import StateStore
from repro.backends.memory import InMemoryStateStore
from repro.backends.postgres_store import PostgresStateStore
from repro.backends.sqlite_store import SQLiteStateStore

_STATE_STORES: dict[str, Callable[[], StateStore]] = {}


def register_state_store(name: str, factory: Callable[[], StateStore]) -> None:
    """Register a store factory; later registrations override earlier."""
    _STATE_STORES[name] = factory


def state_store_factories() -> dict[str, Callable[[], StateStore]]:
    """Registered store factories (name -> zero-arg factory)."""
    return dict(_STATE_STORES)


def create_state_store(spec: "StateStore | str | None") -> StateStore:
    """Resolve a store spec (instance, name, or URL) to an instance."""
    if spec is None:
        spec = "memory"
    if isinstance(spec, StateStore):
        return spec
    if spec.startswith("sqlite:///"):
        return SQLiteStateStore(spec[len("sqlite:///"):])
    if spec.startswith(("postgres://", "postgresql://")):
        return PostgresStateStore(url=spec)
    factory = _STATE_STORES.get(spec)
    if factory is None:
        raise ValueError(
            f"unknown state store {spec!r}; registered: {sorted(_STATE_STORES)}"
        )
    return factory()


register_state_store("memory", InMemoryStateStore)
register_state_store("sqlite", SQLiteStateStore)
# Constructing the Postgres store verifies the driver + server and
# raises BackendUnavailable otherwise; the contract suite skips on that.
register_state_store("postgres", PostgresStateStore)
