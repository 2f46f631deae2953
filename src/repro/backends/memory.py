"""In-memory state store: the pre-seam behaviour, verbatim.

``InMemoryStateStore`` hands the manager exactly the
:class:`~repro.core.dyconit.Dyconit` objects it used to construct
itself, so a system built on the default store is *byte-identical* to
the pre-refactor tree (the existing 2k-tick single-server and 2-shard
differential harnesses run unmodified against it).
"""

from __future__ import annotations

from typing import Hashable

from repro.backends.base import StateStore
from repro.core.dyconit import Dyconit


class InMemoryStateStore(StateStore):
    """Dyconit state in process memory, as S17 flat columns."""

    name = "memory"

    def create_dyconit_state(self, dyconit_id: Hashable, *, merging: bool) -> Dyconit:
        return Dyconit(dyconit_id, merging=merging, flat=True)
