"""In-memory state store: dyconit state as S17 columns in process memory.

``InMemoryStateStore`` hands the manager :class:`~repro.core.dyconit.Dyconit`
objects: the columns the product commits, drains and retunes on. The
test suite's ``per-object`` store and the SQL row store are held to them
by the lockstep differentials.
"""

from __future__ import annotations

from typing import Hashable

from repro.backends.base import StateStore
from repro.core.dyconit import Dyconit


class InMemoryStateStore(StateStore):
    """Dyconit state in process memory, as S17 flat columns."""

    name = "memory"

    def create_dyconit_state(self, dyconit_id: Hashable, *, merging: bool) -> Dyconit:
        return Dyconit(dyconit_id, merging=merging)
