"""Checked mode: cross-structure invariant auditing (S15).

The middleware keeps several structures in lockstep — the alias table and
its reverse map, per-subscriber membership and per-dyconit subscription
states, the per-dyconit due times and the queues they cover, and the
server-side viewer index. Each pair is cheap to maintain but easy to
desynchronize silently: a due time left too late does not crash, it just
flushes late and quietly breaks the staleness promise the whole
evaluation rests on.

:class:`InvariantAuditor` audits every such pair and returns *structured*
violations instead of asserting, so callers choose the failure mode:

* ``auditor.check(system)`` / ``auditor.check_server(server)`` — APIs
  returning a list of :class:`Violation`;
* ``ServerConfig.audit_every_n_ticks`` / ``--audit`` — the engine runs
  the audit every N ticks and raises :class:`InvariantViolationError`
  on the first violation (true no-op when disabled, like telemetry);
* the hypothesis state machine in ``tests/test_invariants_fuzz.py`` —
  drives random commit/subscribe/merge/split/bounds/tick interleavings
  against the auditor plus a naive reference model.

Invariant catalogue (one check* method per entry; DESIGN.md S15 lists
the structure pair each one guards):

I1  alias table acyclicity; ``_aliases`` ↔ ``_alias_sources`` exact
    mirror; no aliased id owns a live dyconit; no empty source bucket.
I2  ``_subscriptions_by_subscriber`` ≡ union of per-dyconit
    ``SubscriptionState`` membership, and both sides only reference
    registered subscribers.
I3  due-time coverage (S22): every pending state with a finite
    staleness bound has ``_due_at[its dyconit] <= oldest_pending_time +
    staleness_ms`` (``I3.due-coverage`` — the due pass visits a dyconit
    only once its due time has passed, so a missing or later entry is a
    late flush; an earlier one is legal and costs one visit), and every
    key of ``_due_at`` is a live dyconit id (``I3.due-live`` — remove,
    merge and split take the id's entry with them).
I4  queue accounting: empty queue ⇔ zeroed error and no oldest-pending
    timestamp; ``pending`` in nondecreasing ``update.time`` order;
    ``oldest_pending_time`` ≤ the first pending update's time;
    ``accumulated_error`` ≥ the surviving pending weight (merging only
    ever adds error, never subtracts it); ``I4.queue-within-bounds``: no
    pending queue meets its numerical trip (``accumulated_error >
    numerical``) or its order trip (distinct pending updates > ``order``)
    — commit, ``rebound`` and ``rebound_one`` drain a queue the moment it
    does, so one found over a bound between operations is a missed flush.
    Staleness is the due pass's, and I3 covers it.
I5  viewer index ≡ brute-force scan of per-session state (the
    differential ground truth promoted from the viewindex tests).
I6  per-link FIFO monotone delivery (observed at delivery time by the
    transport's checked mode; the auditor reports what it recorded).
    ``I6.cork-drained``: the transport holds no pending frame at an
    audit barrier — the tick uncorks before pricing and before the
    audit, so a packet still waiting here would never be sent.
I7  unique entity ownership (cluster, S16): every entity id is
    authoritative — present in a shard's world and not in its ghost
    set — on *exactly one* shard; ids riding the bus inside a pending
    SessionHandoff/EntityTransfer are excused (they are mid-transfer by
    construction). Ghost bookkeeping must be backed: every ghost id
    names a live entity in that shard's world.
I8  mirrored border subscriptions (cluster, S16): at the post-pump
    barrier, shard A's ``remote_interest[P]`` equals P's
    ``peer_registry[A]`` chunk for chunk, and every registered chunk's
    dyconit (alias-resolved) carries the peer's subscription in P's
    middleware. Pairs with control messages still in flight are skipped
    — the mirror is only promised at the barrier.
I9  flat columnar store (S17): slot table ↔ subscriber list ↔ view
    registry ↔ per-slot queue/counter lists mirror, the slot table in
    slot order; per slot the queue
    and its columns agree (empty queue ⇔ ``oldest == inf`` and
    ``err == 0.0``; ``oldest`` ≤ the first pending update's time); the
    pending-slot counter equals the number of non-empty queues; the
    scalar gates are conservative (may fire early, never late) — gates
    a mutation left dirty are refreshed first, exactly as the next
    commit would, so what is checked is what a commit reads. The error
    column's *value* is not replayed here (the superseded weights are
    gone once merged): I4.queue-error-floor bounds it from below at run
    time, the lockstep differentials and the fuzz model pin it bit-equal
    per step. Server-side: the engine's commit buffer is drained at
    every audit barrier — a tick never ends with commits still deferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.core.dyconit import Dyconit
from repro.world.events import EntityDespawnEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import DyconitSystem


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected invariant breach."""

    invariant: str  # catalogue key, e.g. "I3.due-coverage"
    subject: str  # the structure member at fault, repr-formatted
    message: str  # what held vs what was expected

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.message}"


class InvariantViolationError(AssertionError):
    """Raised by the engine's checked mode on a failed audit."""

    def __init__(self, violations: list[Violation]) -> None:
        self.violations = violations
        lines = "\n".join(f"  {violation}" for violation in violations)
        super().__init__(
            f"{len(violations)} middleware invariant violation(s):\n{lines}"
        )


#: Absolute slack for float comparisons. Deadlines and error sums are
#: built from the same additions the middleware performs, so violations
#: are orders of magnitude above this; the slack only absorbs benign
#: last-bit differences from re-association.
_EPS = 1e-9


class InvariantAuditor:
    """Audits a :class:`DyconitSystem` (and optionally its server)."""

    def check(self, system: "DyconitSystem") -> list[Violation]:
        """Run every middleware-level invariant; returns all violations."""
        violations: list[Violation] = []
        self._check_alias_tables(system, violations)
        self._check_subscription_mirror(system, violations)
        self._check_queue_accounting(system, violations)
        self._check_deadline_coverage(system, violations)
        self._check_flat_stores(system, violations)
        return violations

    def check_server(self, server) -> list[Violation]:
        """Middleware invariants plus the server-side structure pairs.

        ``server`` is a :class:`~repro.server.engine.GameServer`; in
        direct mode (no middleware) only the server-side invariants run.
        """
        violations: list[Violation] = []
        if server.dyconits is not None:
            violations.extend(self.check(server.dyconits))
        self._check_viewer_index(server, violations)
        self._check_link_fifo(server, violations)
        self._check_commit_buffer_drained(server, violations)
        return violations

    def check_cluster(self, cluster, reports=None) -> list[Violation]:
        """Per-shard server invariants plus the cross-shard pairs.

        ``cluster`` is a :class:`~repro.cluster.facade.ShardedCluster`;
        ``reports`` holds each shard's :meth:`shard_report` in shard
        order, taken on the live shards when omitted. Meant to run at the
        pump barrier (bus drained); anything legitimately in flight on
        the bus is excused explicitly rather than by loosening the checks.
        """
        if reports is None:
            reports = [self.shard_report(shard) for shard in cluster.shards]
        violations = [
            Violation(
                violation.invariant,
                f"shard {shard.shard_id}: {violation.subject}",
                violation.message,
            )
            for shard, (found, __) in zip(cluster.shards, reports)
            for violation in found
        ]
        self._check_unique_ownership(cluster, violations)
        self._check_subscription_mirror_cluster(
            cluster, [unbacked for __, unbacked in reports], violations
        )
        return violations

    def shard_report(self, shard) -> tuple[list[Violation], dict]:
        """One shard's half of the cluster audit, read where the shard
        lives: its :meth:`check_server` violations and
        :func:`unbacked_peer_chunks`."""
        return self.check_server(shard), unbacked_peer_chunks(shard)

    def assert_ok(self, system_or_server) -> None:
        """Raise :class:`InvariantViolationError` if anything is broken."""
        if hasattr(system_or_server, "shards"):
            violations = self.check_cluster(system_or_server)
        elif hasattr(system_or_server, "transport"):
            violations = self.check_server(system_or_server)
        else:
            violations = self.check(system_or_server)
        if violations:
            raise InvariantViolationError(violations)

    # ------------------------------------------------------------------
    # I1 — alias table ↔ reverse map
    # ------------------------------------------------------------------

    def _check_alias_tables(self, system, violations: list[Violation]) -> None:
        aliases: dict[Hashable, Hashable] = system._aliases
        sources: dict[Hashable, dict[Hashable, None]] = system._alias_sources
        for source_id in aliases:
            seen = {source_id}
            cursor = source_id
            while cursor in aliases:
                cursor = aliases[cursor]
                if cursor in seen:
                    violations.append(
                        Violation(
                            "I1.alias-acyclic",
                            repr(source_id),
                            f"alias chain revisits {cursor!r}",
                        )
                    )
                    break
                seen.add(cursor)
        for source_id, target_id in aliases.items():
            if source_id in system._dyconits:
                violations.append(
                    Violation(
                        "I1.alias-no-live-dyconit",
                        repr(source_id),
                        "aliased id still owns a live dyconit",
                    )
                )
            if source_id not in sources.get(target_id, ()):
                violations.append(
                    Violation(
                        "I1.alias-mirror",
                        repr(source_id),
                        f"missing from _alias_sources[{target_id!r}]",
                    )
                )
        for target_id, bucket in sources.items():
            if not bucket:
                violations.append(
                    Violation(
                        "I1.alias-mirror",
                        repr(target_id),
                        "empty _alias_sources bucket left behind",
                    )
                )
            for source_id in bucket:
                if aliases.get(source_id) != target_id:
                    violations.append(
                        Violation(
                            "I1.alias-mirror",
                            repr(source_id),
                            f"_alias_sources[{target_id!r}] entry not mirrored "
                            f"in _aliases (maps to {aliases.get(source_id)!r})",
                        )
                    )

    # ------------------------------------------------------------------
    # I2 — membership ↔ subscription states
    # ------------------------------------------------------------------

    def _check_subscription_mirror(self, system, violations: list[Violation]) -> None:
        membership: dict[int, dict[Hashable, int]] = system._subscriptions_by_subscriber
        registered = set(system._subscribers)
        if set(membership) != registered:
            violations.append(
                Violation(
                    "I2.membership-registry",
                    repr(sorted(set(membership) ^ registered)),
                    "membership keys differ from registered subscribers",
                )
            )
        actual: dict[int, set[Hashable]] = {}
        for dyconit_id, dyconit in system._dyconits.items():
            for state in dyconit.subscription_states():
                subscriber_id = state.subscriber.subscriber_id
                actual.setdefault(subscriber_id, set()).add(dyconit_id)
                if subscriber_id not in registered:
                    violations.append(
                        Violation(
                            "I2.membership-registry",
                            f"subscriber {subscriber_id}",
                            f"subscribed to {dyconit_id!r} but not registered",
                        )
                    )
        for subscriber_id, members in membership.items():
            expected = actual.get(subscriber_id, set())
            if set(members) != expected:
                violations.append(
                    Violation(
                        "I2.membership-mirror",
                        f"subscriber {subscriber_id}",
                        f"membership {sorted(map(repr, members))} != per-dyconit "
                        f"states {sorted(map(repr, expected))}",
                    )
                )

    # ------------------------------------------------------------------
    # I3 — due-time coverage
    # ------------------------------------------------------------------

    def _check_deadline_coverage(self, system, violations: list[Violation]) -> None:
        for dyconit_id in system._due_at:
            if dyconit_id not in system._dyconits:
                violations.append(
                    Violation(
                        "I3.due-live",
                        repr(dyconit_id),
                        "has a due time but is not a live dyconit (removed, "
                        "merged away or split without dropping its entry)",
                    )
                )
        for dyconit_id, dyconit in system._dyconits.items():
            covering = system._due_at.get(dyconit_id)
            for state in dyconit.subscription_states():
                if not state.has_pending or math.isinf(state.bounds.staleness_ms):
                    continue
                required = state.oldest_pending_time + state.bounds.staleness_ms
                if covering is None or covering > required + _EPS:
                    violations.append(
                        Violation(
                            "I3.due-coverage",
                            f"({dyconit_id!r}, subscriber "
                            f"{state.subscriber.subscriber_id})",
                            f"pending with staleness bound "
                            f"{state.bounds.staleness_ms:g} ms (deadline "
                            f"{required:g}) but the dyconit's due time is "
                            f"{'missing' if covering is None else format(covering, 'g')}"
                            f" — the queue will flush late",
                        )
                    )

    # ------------------------------------------------------------------
    # I4 — per-queue accounting
    # ------------------------------------------------------------------

    def _check_queue_accounting(self, system, violations: list[Violation]) -> None:
        for dyconit_id, dyconit in system._dyconits.items():
            for state in dyconit.subscription_states():
                subject = f"({dyconit_id!r}, subscriber {state.subscriber.subscriber_id})"
                if not state.pending:
                    if state.accumulated_error != 0.0:
                        violations.append(
                            Violation(
                                "I4.queue-zeroed",
                                subject,
                                f"empty queue with accumulated_error "
                                f"{state.accumulated_error:g}",
                            )
                        )
                    if state.oldest_pending_time is not None:
                        violations.append(
                            Violation(
                                "I4.queue-zeroed",
                                subject,
                                f"empty queue with oldest_pending_time "
                                f"{state.oldest_pending_time:g}",
                            )
                        )
                    continue
                if state.oldest_pending_time is None:
                    violations.append(
                        Violation(
                            "I4.queue-zeroed",
                            subject,
                            "pending updates but oldest_pending_time is None",
                        )
                    )
                    continue
                updates = list(state.pending.values())
                times = [update.time for update in updates]
                if any(later < earlier for earlier, later in zip(times, times[1:])):
                    violations.append(
                        Violation(
                            "I4.queue-time-order",
                            subject,
                            f"pending times not nondecreasing: {times}",
                        )
                    )
                if state.oldest_pending_time > times[0] + _EPS:
                    violations.append(
                        Violation(
                            "I4.queue-oldest",
                            subject,
                            f"oldest_pending_time {state.oldest_pending_time:g} is "
                            f"later than the first pending update ({times[0]:g}) — "
                            f"staleness accounting undercounts the backlog's age",
                        )
                    )
                surviving_weight = sum(update.weight for update in updates)
                if state.accumulated_error + _EPS < surviving_weight:
                    violations.append(
                        Violation(
                            "I4.queue-error-floor",
                            subject,
                            f"accumulated_error {state.accumulated_error:g} below "
                            f"surviving pending weight {surviving_weight:g}",
                        )
                    )
                bounds = state.bounds
                if state.accumulated_error > bounds.numerical:
                    violations.append(
                        Violation(
                            "I4.queue-within-bounds",
                            subject,
                            f"accumulated_error {state.accumulated_error:g} over the "
                            f"numerical bound {bounds.numerical:g} — the queue should "
                            f"have flushed when it tripped",
                        )
                    )
                if len(updates) > bounds.order:
                    violations.append(
                        Violation(
                            "I4.queue-within-bounds",
                            subject,
                            f"{len(updates)} distinct updates pending over the order "
                            f"bound {bounds.order:g} — the queue should have flushed "
                            f"when it tripped",
                        )
                    )

    # ------------------------------------------------------------------
    # I5 — viewer index ≡ brute-force scan
    # ------------------------------------------------------------------

    def _check_viewer_index(self, server, violations: list[Violation]) -> None:
        for message in server.viewers.violations(server.sessions.values()):
            violations.append(Violation("I5.viewer-index", "ViewerIndex", message))

    # ------------------------------------------------------------------
    # I6 — per-link FIFO monotone delivery
    # ------------------------------------------------------------------

    def _check_link_fifo(self, server, violations: list[Violation]) -> None:
        for message in getattr(server.transport, "fifo_violations", ()):
            violations.append(Violation("I6.link-fifo", "Transport", message))
        pending = getattr(server.transport, "pending_packets", 0)
        if pending:
            violations.append(
                Violation(
                    "I6.cork-drained",
                    "Transport",
                    f"{pending} packets still in pending frames at the audit "
                    f"barrier — the transport must be uncorked between phases",
                )
            )

    # ------------------------------------------------------------------
    # I7 — unique entity ownership across shards
    # ------------------------------------------------------------------

    def _check_unique_ownership(self, cluster, violations: list[Violation]) -> None:
        from repro.cluster.messages import (
            EntityTransfer,
            PeerSnapshot,
            PeerUpdates,
            SessionHandoff,
        )

        # Ids inside pending transfer messages are mid-flight between
        # owners by construction; everything else must resolve to exactly
        # one authoritative copy *right now*.
        in_flight: set[int] = set()
        #: (dst shard, entity id) with a despawn record still on the bus:
        #: the owner already dropped the entity, the ghost dies at the
        #: next pump — excusable exactly on that shard.
        pending_despawns: set[tuple[int, int]] = set()
        for edge, messages in cluster.bus.pending_by_edge().items():
            for message in messages:
                if isinstance(message, (SessionHandoff, EntityTransfer)):
                    in_flight.add(message.entity_id)
                elif isinstance(message, (PeerUpdates, PeerSnapshot)):
                    for record in message.records:
                        if isinstance(record, EntityDespawnEvent):
                            pending_despawns.add((edge[1], record.entity_id))
        owners: dict[int, list[int]] = {}
        for shard in cluster.shards:
            for entity in shard.world.entities():
                if entity.entity_id not in shard.ghost_ids:
                    owners.setdefault(entity.entity_id, []).append(shard.shard_id)
        for entity_id in sorted(owners):
            shard_ids = owners[entity_id]
            if len(shard_ids) > 1 and entity_id not in in_flight:
                violations.append(
                    Violation(
                        "I7.unique-ownership",
                        f"entity {entity_id}",
                        f"authoritative on shards {shard_ids} simultaneously",
                    )
                )
        for shard in cluster.shards:
            for ghost_id in sorted(shard.ghost_ids):
                if shard.world.get_entity(ghost_id) is None:
                    violations.append(
                        Violation(
                            "I7.ghost-backed",
                            f"shard {shard.shard_id}: entity {ghost_id}",
                            "ghost bookkeeping without a live entity",
                        )
                    )
                elif (
                    ghost_id not in owners
                    and ghost_id not in in_flight
                    and (shard.shard_id, ghost_id) not in pending_despawns
                ):
                    violations.append(
                        Violation(
                            "I7.ghost-of-nobody",
                            f"shard {shard.shard_id}: entity {ghost_id}",
                            "ghost replica of an entity no shard owns",
                        )
                    )

    # ------------------------------------------------------------------
    # I9 — flat columnar store: queues ↔ columns ↔ gates (S17)
    # ------------------------------------------------------------------

    def _check_flat_stores(self, system, violations: list[Violation]) -> None:
        for dyconit_id, dyconit in system._dyconits.items():
            if isinstance(dyconit, Dyconit):
                self._check_flat_store(dyconit_id, dyconit, violations)

    def _check_flat_store(self, dyconit_id, flat, violations: list[Violation]) -> None:
        # Slot table <-> subscriber list mirror (the columnar analogue of
        # the I2 membership check), and the per-slot lists beside them.
        lengths = {
            "slot subscribers": len(flat.subscriber_by_slot),
            "slot ids": len(flat.slots),
            "queues": len(flat.queues),
            "enq counters": len(flat.enq),
            "mrg counters": len(flat.mrg),
        }
        if set(lengths.values()) != {flat.n}:
            violations.append(
                Violation("I9.slot-mirror", repr(dyconit_id), f"n={flat.n} but {lengths}")
            )
            return
        # In slot order, too, as the id column ``subscriber_ids()`` returns.
        for position, (subscriber_id, slot) in enumerate(flat.slots.items()):
            if (
                slot != position
                or flat.subscriber_by_slot[slot].subscriber_id != subscriber_id
            ):
                violations.append(
                    Violation(
                        "I9.slot-mirror",
                        f"({dyconit_id!r}, subscriber {subscriber_id})",
                        f"slots[{subscriber_id}]={slot} at position {position} does "
                        f"not round-trip through subscriber_by_slot in slot order",
                    )
                )
                return
        if flat.subscriber_ids().tolist() != list(flat.slots):
            violations.append(
                Violation(
                    "I9.slot-mirror",
                    repr(dyconit_id),
                    f"id column {flat.subscriber_ids().tolist()} != slot table "
                    f"{list(flat.slots)} (a retune sweep maps slots by it)",
                )
            )
        if set(flat._views) != set(flat.slots):
            violations.append(
                Violation(
                    "I9.slot-mirror",
                    repr(dyconit_id),
                    f"view registry {sorted(flat._views)} != slot table "
                    f"{sorted(flat.slots)}",
                )
            )

        # Queue <-> column agreement per slot. (I4 checks the same facts
        # through the views, which answer "is it pending?" from the queue;
        # this reads the raw columns the commit and due scans read.)
        for slot, queue in enumerate(flat.queues):
            subscriber_id = flat.subscriber_by_slot[slot].subscriber_id
            subject = f"({dyconit_id!r}, subscriber {subscriber_id})"
            err = float(flat.err[slot])
            oldest = float(flat.oldest[slot])
            if not queue:
                if err != 0.0 or not math.isinf(oldest):
                    violations.append(
                        Violation(
                            "I9.queue-column",
                            subject,
                            f"empty queue but columns hold err={err!r} "
                            f"oldest={oldest!r}",
                        )
                    )
                continue
            first_time = next(iter(queue.values())).time
            if not oldest <= first_time + _EPS:
                violations.append(
                    Violation(
                        "I9.queue-column",
                        subject,
                        f"{len(queue)} pending but oldest column {oldest!r} is "
                        f"not <= the first pending time {first_time!r} — the "
                        f"staleness scans would skip or under-age the queue",
                    )
                )
        counts = [len(queue) for queue in flat.queues]
        non_empty = sum(1 for count in counts if count)
        if flat.n_pending != non_empty:
            violations.append(
                Violation(
                    "I9.pending-count",
                    repr(dyconit_id),
                    f"n_pending {flat.n_pending} != {non_empty} non-empty queues",
                )
            )

        # Scalar gates: exact where claimed exact, conservative otherwise
        # (a gate that can fire late silently breaks a bound promise).
        # Mutations other than commit only mark the gates dirty; refresh
        # them the way the next commit will before it reads any of them.
        flat.refresh_gates()
        if flat.n:
            bnum = [float(flat.b_num[slot]) for slot in range(flat.n)]
            if flat.n_finite_bnum != sum(1 for b in bnum if math.isfinite(b)):
                violations.append(
                    Violation(
                        "I9.gates",
                        repr(dyconit_id),
                        f"n_finite_bnum {flat.n_finite_bnum} != exact count",
                    )
                )
            bstale = [float(flat.b_stale[slot]) for slot in range(flat.n)]
            if flat.min_bstale != min(bstale):
                violations.append(
                    Violation(
                        "I9.gates",
                        repr(dyconit_id),
                        f"min_bstale {flat.min_bstale:g} != exact {min(bstale):g}",
                    )
                )
            true_deadline = min(
                float(flat.oldest[slot]) + bstale[slot] for slot in range(flat.n)
            )
            if flat.min_deadline > true_deadline + 1e-6:
                violations.append(
                    Violation(
                        "I9.gates",
                        repr(dyconit_id),
                        f"staleness gate {flat.min_deadline:g} later than the "
                        f"earliest true deadline {true_deadline:g} — a queue "
                        f"would flush late",
                    )
                )
            border = [float(flat.b_order[slot]) for slot in range(flat.n)]
            if flat.min_border != min(border):
                violations.append(
                    Violation(
                        "I9.gates",
                        repr(dyconit_id),
                        f"min_border {flat.min_border:g} != exact {min(border):g}",
                    )
                )
            if flat.count_ub < max(counts):
                violations.append(
                    Violation(
                        "I9.gates",
                        repr(dyconit_id),
                        f"count_ub {flat.count_ub} below the true max pending "
                        f"count {max(counts)} — the order gate could fire late",
                    )
                )

    def _check_commit_buffer_drained(self, server, violations: list[Violation]) -> None:
        buffer = getattr(server, "_commit_buffer", None)
        if buffer:
            violations.append(
                Violation(
                    "I9.commit-buffer",
                    "GameServer",
                    f"{len(buffer)} commits still buffered at the audit "
                    f"barrier — a tick must end with the buffer drained",
                )
            )

    # ------------------------------------------------------------------
    # I8 — mirrored cross-shard subscriptions
    # ------------------------------------------------------------------

    def _check_subscription_mirror_cluster(
        self, cluster, unbacked: list[dict], violations: list[Violation]
    ) -> None:
        from repro.cluster.messages import PeerSubscribe, PeerUnsubscribe

        pending = cluster.bus.pending_by_edge()
        for subscriber in cluster.shards:
            for publisher in cluster.shards:
                if subscriber.shard_id == publisher.shard_id:
                    continue
                edge = (subscriber.shard_id, publisher.shard_id)
                if any(
                    isinstance(message, (PeerSubscribe, PeerUnsubscribe))
                    for message in pending.get(edge, ())
                ):
                    continue  # mirror promised only at the barrier
                wanted = set(
                    subscriber.remote_interest.get(publisher.shard_id, ())
                )
                registered = set(
                    publisher.peer_registry.get(subscriber.shard_id, ())
                )
                for chunk in sorted(wanted - registered, key=lambda c: (c.cx, c.cz)):
                    violations.append(
                        Violation(
                            "I8.mirror",
                            f"shard {subscriber.shard_id}->"
                            f"{publisher.shard_id} {chunk}",
                            "subscriber holds interest the publisher never "
                            "registered",
                        )
                    )
                for chunk in sorted(registered - wanted, key=lambda c: (c.cx, c.cz)):
                    violations.append(
                        Violation(
                            "I8.mirror",
                            f"shard {subscriber.shard_id}->"
                            f"{publisher.shard_id} {chunk}",
                            "publisher still registers a chunk the subscriber "
                            "dropped",
                        )
                    )
                missing = unbacked[publisher.shard_id].get(subscriber.shard_id, {})
                for chunk in sorted(missing.keys() & wanted, key=lambda c: (c.cx, c.cz)):
                    violations.append(
                        Violation(
                            "I8.dyconit-backing",
                            f"shard {publisher.shard_id} {chunk}",
                            f"registered for peer {subscriber.shard_id} but "
                            f"dyconit {missing[chunk]!r} has no peer "
                            "subscription",
                        )
                    )


def unbacked_peer_chunks(shard) -> dict[int, dict]:
    """I8's dyconit-backing half on one publisher shard: per peer shard,
    each chunk registered for it whose alias-resolved dyconit carries no
    subscription of that peer, mapped to that dyconit's id."""
    from repro.cluster.shard import peer_subscriber_id

    dyconits = shard.dyconits
    unbacked: dict[int, dict] = {}
    if dyconits is None:
        return unbacked
    for peer, chunks in shard.peer_registry.items():
        subscribed = set(dyconits.subscription_ids_of(peer_subscriber_id(peer)))
        for chunk in chunks:
            dyconit_id = dyconits.resolve(dyconits.partitioner.dyconit_for_chunk(chunk))
            if dyconit_id not in subscribed:
                unbacked.setdefault(peer, {})[chunk] = dyconit_id
    return unbacked
