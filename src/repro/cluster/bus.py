"""Deterministic inter-shard message bus.

The bus is the *only* channel between shards, and its delivery schedule
is a pure function of what was posted:

* one FIFO queue per **directed edge** ``(src, dst)``, with a per-edge
  sequence number stamped on every message (the auditor checks gaps);
* nothing is delivered at post time — messages wait for the cluster's
  pump, which runs at a **barrier** after all shards ticked;
* the pump drains in rounds (:meth:`InterShardBus.rounds`): each round
  is every edge's queue in sorted ``(src, dst)`` order, messages within
  an edge in FIFO order, and the next round holds what delivering it
  posted, until the bus is empty — a handoff processed in round 1 may
  post subscriptions answered by snapshots in rounds 2 and 3. Delivery
  is the cluster's job (one :meth:`ShardServer.deliver_round` call per
  destination per round, in process or in a worker). Cascades provably
  terminate (a snapshot application posts nothing), but a defensive
  round cap turns a cycle bug into a loud error instead of a hang.

Byte accounting mirrors :class:`~repro.net.transport.Transport`: every
message's modelled wire size is summed per edge and per message kind, so
E11 can report inter-shard dyconit bandwidth next to client bandwidth.
"""

from __future__ import annotations

from typing import Iterator

from repro.cluster.messages import ShardMessage

#: A pump that needs more rounds than this is cycling, not converging.
MAX_PUMP_ROUNDS = 32

#: One round: ``((src, dst), messages)`` per non-empty edge, sorted.
Round = list[tuple[tuple[int, int], list[ShardMessage]]]

#: One destination's part of a round: ``(src, messages)`` per edge.
Segment = list[tuple[int, list[ShardMessage]]]


def by_destination(round_batches: Round) -> list[tuple[int, Segment]]:
    """Split a round into ``(dst, segment)`` parts, destinations
    ascending, each segment's edges in the round's order. Parts are
    independent: delivering one touches only its destination's state
    and posts only on that destination's outgoing edges."""
    parts: dict[int, Segment] = {}
    for (src, dst), messages in round_batches:
        parts.setdefault(dst, []).append((src, messages))
    return sorted(parts.items())


class BusPumpDivergenceError(RuntimeError):
    """The pump hit :data:`MAX_PUMP_ROUNDS` with messages still queued.

    A bare round-cap RuntimeError used to abort the run mid-tick with no
    way to tell *which* edges were cycling; this carries a snapshot of
    every non-empty edge — queue depth, the seq range still queued, and
    the pending message kinds — so the cycle is diagnosable post-mortem.
    """

    def __init__(self, rounds: int, edges: dict[tuple[int, int], dict]) -> None:
        self.rounds = rounds
        #: edge -> {"depth", "first_seq", "last_seq", "kinds"}.
        self.edges = edges
        pending = sum(info["depth"] for info in edges.values())
        lines = [
            f"bus pump did not converge after {rounds} rounds "
            f"({pending} messages still pending on {len(edges)} edge(s)):"
        ]
        for edge, info in sorted(edges.items()):
            kinds = ", ".join(
                f"{kind}x{count}" for kind, count in sorted(info["kinds"].items())
            )
            lines.append(
                f"  edge {edge[0]}->{edge[1]}: depth={info['depth']} "
                f"seqs=[{info['first_seq']}..{info['last_seq']}] kinds={kinds}"
            )
        super().__init__("\n".join(lines))


class InterShardBus:
    """Per-edge FIFO queues drained in deterministic order."""

    def __init__(self) -> None:
        self._queues: dict[tuple[int, int], list[tuple[int, ShardMessage]]] = {}
        self._next_seq: dict[tuple[int, int], int] = {}
        self._delivered_seq: dict[tuple[int, int], int] = {}
        self._shards: set[int] = set()
        self.total_bytes = 0
        self.total_messages = 0
        self.bytes_by_edge: dict[tuple[int, int], int] = {}
        self.messages_by_kind: dict[str, int] = {}
        #: Rounds the most recent drain (:meth:`rounds`) took (telemetry
        #: gauge ``bus_pump_rounds`` is set from this at each barrier).
        self.last_pump_rounds = 0

    def attach(self, shard_id: int) -> None:
        """Register ``shard_id`` as a destination messages may be posted to."""
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id} already attached to the bus")
        self._shards.add(shard_id)

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------

    def post(self, src: int, dst: int, message: ShardMessage) -> None:
        if src == dst:
            raise ValueError(f"shard {src} posting to itself")
        if dst not in self._shards:
            raise ValueError(f"no shard {dst} attached to the bus")
        edge = (src, dst)
        seq = self._next_seq.get(edge, 0)
        self._next_seq[edge] = seq + 1
        self._queues.setdefault(edge, []).append((seq, message))
        size = message.wire_size()
        self.total_bytes += size
        self.total_messages += 1
        self.bytes_by_edge[edge] = self.bytes_by_edge.get(edge, 0) + size
        kind = type(message).__name__
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1

    @property
    def pending_messages(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def pending_by_edge(self) -> dict[tuple[int, int], list[ShardMessage]]:
        """Undelivered messages per edge (for the invariant auditor)."""
        return {
            edge: [message for __, message in queue]
            for edge, queue in self._queues.items()
            if queue
        }

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def take_round(self) -> Round:
        """Remove and return one round's worth of messages.

        Snapshots every non-empty edge in sorted ``(src, dst)`` order,
        pops exactly the snapshotted prefixes off the live queues (so
        messages posted while the round is being *processed* wait for
        the next round), and verifies the per-edge seq chain. Delivery
        itself is the caller's job: the serial cluster hands each
        destination its part in process, the parallel shard runner
        ships the same parts to worker processes — both see the same
        round structure.
        """
        batches = [
            (edge, list(queue))
            for edge, queue in sorted(self._queues.items())
            if queue
        ]
        round_out: Round = []
        for edge, batch in batches:
            del self._queues[edge][: len(batch)]
            expected = self._delivered_seq.get(edge, 0)
            messages: list[ShardMessage] = []
            for seq, message in batch:
                if seq != expected:
                    raise RuntimeError(
                        f"bus FIFO violated on edge {edge}: "
                        f"delivering seq {seq}, expected {expected}"
                    )
                expected = seq + 1
                messages.append(message)
            self._delivered_seq[edge] = expected
            round_out.append((edge, messages))
        return round_out

    def _divergence_snapshot(self) -> dict[tuple[int, int], dict]:
        edges: dict[tuple[int, int], dict] = {}
        for edge, queue in sorted(self._queues.items()):
            if not queue:
                continue
            kinds: dict[str, int] = {}
            for __, message in queue:
                kind = type(message).__name__
                kinds[kind] = kinds.get(kind, 0) + 1
            edges[edge] = {
                "depth": len(queue),
                "first_seq": queue[0][0],
                "last_seq": queue[-1][0],
                "kinds": kinds,
            }
        return edges

    def rounds(self) -> Iterator[Round]:
        """Drain the bus round by round: yield :meth:`take_round` until it
        comes back empty. The caller delivers each round before asking
        for the next, so messages posted *during* a round make the next
        one and total order stays a pure function of the posting
        history. Sets :attr:`last_pump_rounds`; a drain that yields
        :data:`MAX_PUMP_ROUNDS` rounds and is asked for another raises
        :class:`BusPumpDivergenceError` instead of cycling forever."""
        for round_index in range(MAX_PUMP_ROUNDS):
            round_batches = self.take_round()
            if not round_batches:
                self.last_pump_rounds = round_index
                return
            yield round_batches
        self.last_pump_rounds = MAX_PUMP_ROUNDS
        raise BusPumpDivergenceError(MAX_PUMP_ROUNDS, self._divergence_snapshot())
