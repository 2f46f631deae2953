"""Reverse view index: O(viewers) event fan-out.

The engine's broadcast path and the interest manager's chunk-crossing
handler both need "which sessions care about this chunk/entity?". The
naive answer — scan every connected session — makes a movement-heavy
tick O(players²): every move event visits every player even though only
the handful viewing the event's chunk can receive it.

:class:`ViewerIndex` keeps two reverse maps in lockstep with per-session
state so those paths touch only the sessions that matter:

* ``chunk -> sessions viewing it`` — the exact inverse of
  ``session.view_chunks``, maintained by :class:`InterestManager` at the
  three places the view set changes (join, refresh, leave);
* ``entity -> sessions knowing it`` — the exact inverse of
  ``session.known_entities`` membership, maintained by
  :class:`~repro.server.session.KnownEntityMap` write hooks (the codec
  and the interest manager mutate that map on many paths; hooking the
  map itself is the only way to stay exact).

Buckets are insertion-ordered dicts keyed by client id, not sets:
iteration order is then a deterministic function of the simulation
history, which keeps seeded runs reproducible (session objects hash by
identity, so set iteration order would vary run to run).

The indexed fan-out is required to be *packet-for-packet identical* to
the brute-force scan; ``tests/test_server_viewindex.py`` proves this
differentially and by property-checking the inverse-map invariants.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.world.geometry import ChunkPos

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.session import PlayerSession


class ViewerIndex:
    """Chunk→viewers and entity→knowers reverse maps."""

    def __init__(self) -> None:
        self._viewers_by_chunk: dict[ChunkPos, dict[int, "PlayerSession"]] = {}
        self._knowers_by_entity: dict[int, dict[int, "PlayerSession"]] = {}

    # ------------------------------------------------------------------
    # View maintenance (called by InterestManager)
    # ------------------------------------------------------------------

    def add_view(self, session: "PlayerSession", chunks: Iterable[ChunkPos]) -> None:
        """Record that ``session`` now views every chunk in ``chunks``."""
        client_id = session.client_id
        buckets = self._viewers_by_chunk
        for chunk in chunks:
            bucket = buckets.get(chunk)
            if bucket is None:
                bucket = buckets[chunk] = {}
            bucket[client_id] = session

    def remove_view(self, session: "PlayerSession", chunks: Iterable[ChunkPos]) -> None:
        """Record that ``session`` no longer views the chunks in ``chunks``.

        Empty buckets are pruned immediately: a trekking player would
        otherwise leave a trail of dead dict entries for every chunk it
        ever saw.
        """
        client_id = session.client_id
        buckets = self._viewers_by_chunk
        for chunk in chunks:
            bucket = buckets.get(chunk)
            if bucket is None:
                continue
            bucket.pop(client_id, None)
            if not bucket:
                del buckets[chunk]

    # ------------------------------------------------------------------
    # Knower maintenance (called by KnownEntityMap write hooks)
    # ------------------------------------------------------------------

    def on_entity_known(self, entity_id: int, session: "PlayerSession") -> None:
        bucket = self._knowers_by_entity.get(entity_id)
        if bucket is None:
            bucket = self._knowers_by_entity[entity_id] = {}
        bucket[session.client_id] = session

    def on_entity_forgotten(self, entity_id: int, session: "PlayerSession") -> None:
        bucket = self._knowers_by_entity.get(entity_id)
        if bucket is None:
            return
        bucket.pop(session.client_id, None)
        if not bucket:
            del self._knowers_by_entity[entity_id]

    # ------------------------------------------------------------------
    # Queries (the O(viewers) fan-out paths)
    # ------------------------------------------------------------------

    def viewers(self, chunk: ChunkPos) -> list["PlayerSession"]:
        """Sessions currently viewing ``chunk`` (snapshot; safe to mutate
        views or send packets while iterating)."""
        bucket = self._viewers_by_chunk.get(chunk)
        if not bucket:
            return []
        return list(bucket.values())

    def knowers(self, entity_id: int) -> list["PlayerSession"]:
        """Sessions whose client currently has a replica of ``entity_id``
        (snapshot; forgetting entities while iterating is safe)."""
        bucket = self._knowers_by_entity.get(entity_id)
        if not bucket:
            return []
        return list(bucket.values())

    # ------------------------------------------------------------------
    # Introspection (telemetry + tests)
    # ------------------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        """Distinct chunks with at least one viewer."""
        return len(self._viewers_by_chunk)

    @property
    def pair_count(self) -> int:
        """Total (chunk, session) pairs — the index's working-set size."""
        return sum(len(bucket) for bucket in self._viewers_by_chunk.values())

    def violations(self, sessions: Iterable["PlayerSession"]) -> list[str]:
        """Differential ground truth: compare both maps against a
        brute-force scan of per-session state; returns one message per
        divergence (empty list = exact inverse). This is the check the
        invariant auditor (S15 checked mode) runs every N ticks."""
        sessions = list(sessions)
        expected_viewers: dict[ChunkPos, set[int]] = {}
        expected_knowers: dict[int, set[int]] = {}
        for session in sessions:
            for chunk in session.view_chunks:
                expected_viewers.setdefault(chunk, set()).add(session.client_id)
            for entity_id in session.known_entities:
                expected_knowers.setdefault(entity_id, set()).add(session.client_id)
        actual_viewers = {
            chunk: set(bucket) for chunk, bucket in self._viewers_by_chunk.items()
        }
        actual_knowers = {
            entity_id: set(bucket)
            for entity_id, bucket in self._knowers_by_entity.items()
        }
        found: list[str] = []
        if actual_viewers != expected_viewers:
            found.append(
                f"viewer index diverged from session.view_chunks: "
                f"index={actual_viewers} expected={expected_viewers}"
            )
        if actual_knowers != expected_knowers:
            found.append(
                f"knower index diverged from session.known_entities: "
                f"index={actual_knowers} expected={expected_knowers}"
            )
        for chunk, bucket in self._viewers_by_chunk.items():
            if not bucket:
                found.append(f"empty viewer bucket left behind for {chunk}")
        for entity_id, bucket in self._knowers_by_entity.items():
            if not bucket:
                found.append(f"empty knower bucket left behind for entity {entity_id}")
        return found

    def audit(self, sessions: Iterable["PlayerSession"]) -> None:
        """Assert both maps are the exact inverse of per-session state.

        Used by the property tests after arbitrary interleavings of
        join / refresh / crossing / disconnect; raises AssertionError
        with a precise message on the first violation found.
        """
        for message in self.violations(sessions):
            raise AssertionError(message)
