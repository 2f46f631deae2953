"""Transport: routes packets from the server to client links.

The transport owns one :class:`ClientLink` per connected client, delivers
packets through the simulation's event queue, and exposes fleet-wide
accounting. Receivers register a callback invoked at delivery time with a
:class:`DeliveredPacket` carrying the end-to-end latency.

Egress is *framed*. :meth:`Transport.send` is the only way a packet
enters a link, and what it hands the link is always a frame — the
packets one client is sent at one simulated instant:

* uncorked (joins, handoffs, cluster pump handlers, anything outside a
  server tick), ``send`` is a one-packet frame, immediately;
* between :meth:`Transport.cork` and :meth:`Transport.uncork` (the
  server tick's phases), ``send`` only appends to that client's pending
  frame, and the uncork sends each client's frame once, in the order
  clients were first sent to: one link lookup, one clock read, one
  :meth:`ClientLink.transmit_frame` and one accounting update per client
  per tick instead of per packet.

What stays per packet, because it is observable: the size model and the
link arithmetic (byte counts and every ``delivered_at`` are bit-identical
to sending one by one), the fault layer's draws and their order, latency
samples, drop counts, the checked-mode FIFO comparison, and the handler
call — one :class:`DeliveredPacket` per packet, in send order per client.
What a cork changes is only the interleaving of handler calls *across*
clients inside one tick (client order instead of event order).

The per-packet part costs C calls where it can (S30):
:class:`DeliveredPacket` is a ``NamedTuple`` that the delivery loops
build with ``tuple.__new__`` (no ``__init__`` frame per packet), the
latency reservoir recomputes its draw width only when the sample count
crosses a power of two, and the fleet totals read running sums for
closed links instead of walking every link a churny run ever closed.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.faults.link import FaultyLink
from repro.faults.plan import FaultPlan
from repro.net.link import ClientLink, LinkConfig
from repro.net.protocol import Packet
from repro.sim.rng import derive_rng
from repro.sim.simulator import Simulation
from repro.telemetry.hub import NULL_TELEMETRY, Telemetry
from repro.world.geometry import _no_tuple_arithmetic


class DeliveredPacket(NamedTuple):
    """A packet as seen by the receiving client.

    A ``NamedTuple`` like the geometry types (S28): the hash is the
    field tuple's, the repr the dataclass one, the fields read-only, and
    ``+``/``*`` stay unsupported. The hot loops below build it with
    ``tuple.__new__(DeliveredPacket, (...))`` — what the generated
    ``__new__`` does, one Python frame fewer per packet.
    """

    packet: Packet
    sent_at: float
    delivered_at: float

    __add__ = __mul__ = __rmul__ = _no_tuple_arithmetic

    @property
    def latency_ms(self) -> float:
        return self.delivered_at - self.sent_at


PacketHandler = Callable[[DeliveredPacket], None]


class LatencyReservoir:
    """Bounded uniform sample of per-packet latencies (Algorithm R).

    Long capacity sweeps send tens of millions of packets; keeping every
    latency grows without bound. The reservoir keeps a fixed-size uniform
    sample whose quantiles converge to the exact ones, and draws its
    replacement indices from a seeded RNG so two same-seed runs keep
    identical samples.
    """

    def __init__(self, capacity: int, rng: random.Random) -> None:
        if capacity <= 0:
            raise ValueError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = rng
        self.samples: list[float] = []
        #: Total values offered (kept samples + displaced ones).
        self.count = 0

    def record(self, value: float) -> None:
        self.record_many((value,))

    def record_many(self, values: Iterable[float]) -> None:
        """Offer ``values`` in order; same draws as one ``randrange(count)``
        per value past capacity (``getrandbits`` with rejection is what
        ``randrange`` does), without three calls per packet."""
        samples = self.samples
        capacity = self.capacity
        getrandbits = self._rng.getrandbits
        count = self.count
        # ``count.bit_length()``, recomputed only when ``count`` reaches
        # the next power of two.
        bits = count.bit_length()
        next_power = 1 << bits
        for value in values:
            count += 1
            if count <= capacity:
                samples.append(value)
                continue
            if count >= next_power:
                bits = count.bit_length()
                next_power = 1 << bits
            slot = getrandbits(bits)
            while slot >= count:
                slot = getrandbits(bits)
            if slot < capacity:
                samples[slot] = value
        self.count = count


class Transport:
    """Server-side packet egress for all connected clients."""

    def __init__(
        self,
        sim: Simulation,
        default_link: LinkConfig | None = None,
        seed: int = 0,
        synchronous_delivery: bool = False,
        telemetry: Telemetry | None = None,
        faults: FaultPlan | None = None,
        latency_sample_cap: int = 4096,
    ) -> None:
        self.sim = sim
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.telemetry.enabled:
            self._tm_sent = self.telemetry.counter("link_packets_sent_total")
            self._tm_latency = self.telemetry.histogram(
                "link_delivery_latency_ms", min_value=0.1
            )
            self._tm_dropped = self.telemetry.counter("faults_packets_dropped_total")
            self._tm_reconnects = self.telemetry.counter("reconnects_total")
        else:
            self._tm_sent = None
            self._tm_latency = None
            self._tm_dropped = None
            self._tm_reconnects = None
        self.default_link = default_link if default_link is not None else LinkConfig()
        #: Fault plan applied to every link. ``None`` = no fault layer (a
        #: null :class:`FaultPlan` still installs it; it injects nothing).
        self.default_faults = faults
        self.seed = seed
        #: When True, handlers run at send time (latency is still computed
        #: and recorded) instead of via a scheduled event per packet. Large
        #: capacity sweeps enable this for speed; latency experiments keep
        #: it off. Delivery order is unchanged either way (FIFO per link).
        self.synchronous_delivery = synchronous_delivery
        self._links: dict[int, ClientLink] = {}
        self._handlers: dict[int, PacketHandler] = {}
        #: Connection generation per client id, bumped on every connect.
        #: In-flight deliveries carry the generation they were sent under
        #: so a packet from a closed connection can never reach a later
        #: connection that reused the same client id.
        self._generations: dict[int, int] = {}
        #: Stats of links whose clients have disconnected, kept so fleet
        #: totals survive churny workloads (e.g. the E6 player burst),
        #: and their byte and packet sums, so the per-tick totals walk
        #: only the live links.
        self._closed_stats: list = []
        self._closed_bytes = 0
        self._closed_packets = 0
        #: When True, record *every* latency exactly (the E4 latency runs
        #: need exact percentiles); otherwise latencies go into a bounded
        #: seeded reservoir so long sweeps cannot grow without bound.
        self.record_latencies = False
        self._exact_latencies: list[float] = []
        self._latency_reservoir = LatencyReservoir(
            latency_sample_cap, derive_rng(seed, "latency-reservoir")
        )
        #: Packets the fault layer lost across all links, disconnected
        #: ones included.
        self.packets_dropped = 0
        #: Connections that reused a previously seen client id.
        self.reconnect_count = 0
        #: Checked mode (S15): when enabled, each delivery is compared
        #: against the client's previous one and any FIFO regression is
        #: recorded here for the invariant auditor. ``None`` = disabled:
        #: the delivery hot path pays one attribute check and nothing else.
        self._fifo_last: dict[int, float] | None = None
        self.fifo_violations: list[str] = []
        #: ``None`` = uncorked. Corked: client id -> the packets sent to
        #: it since :meth:`cork`, in send order. Insertion ordered, so
        #: the flush order is a function of the run alone.
        self._pending: dict[int, list[Packet]] | None = None

    @property
    def latencies_ms(self) -> list[float]:
        """Observed per-packet latencies: exact in E4 mode
        (``record_latencies``), a bounded uniform sample otherwise."""
        if self.record_latencies:
            return self._exact_latencies
        return self._latency_reservoir.samples

    @property
    def latency_sample_count(self) -> int:
        """How many latencies were *observed* (>= len(latencies_ms))."""
        if self.record_latencies:
            return len(self._exact_latencies)
        return self._latency_reservoir.count

    def enable_fifo_checking(self) -> None:
        """Turn on checked mode: record per-client delivery-time
        regressions (the FIFO-per-link contract) in ``fifo_violations``."""
        if self._fifo_last is None:
            self._fifo_last = {}

    def _check_fifo(self, client_id: int, delivered_at: float) -> None:
        last = self._fifo_last.get(client_id)
        if last is not None and delivered_at < last:
            self.fifo_violations.append(
                f"client {client_id}: delivery at {delivered_at:g} ms after a "
                f"delivery at {last:g} ms — link reordered"
            )
        self._fifo_last[client_id] = delivered_at

    def _record_latencies(self, latencies_ms: Sequence[float]) -> None:
        if self.record_latencies:
            self._exact_latencies.extend(latencies_ms)
        else:
            self._latency_reservoir.record_many(latencies_ms)
        if self._tm_latency is not None:
            for latency_ms in latencies_ms:
                self._tm_latency.record(latency_ms)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def connect(
        self,
        client_id: int,
        handler: PacketHandler,
    ) -> ClientLink:
        """Register a client on the transport's link config and fault
        plan; returns its link."""
        if client_id in self._links:
            raise ValueError(f"client {client_id} is already connected")
        config = self.default_link
        jitter = None
        if config.jitter_ms > 0:
            rng = derive_rng(self.seed, "link-jitter", client_id)
            jitter_span = config.jitter_ms
            jitter = lambda: rng.random() * jitter_span  # noqa: E731
        plan = self.default_faults
        if plan is not None:
            client_link: ClientLink = FaultyLink(
                client_id,
                config,
                plan,
                derive_rng(self.seed, "faults", client_id),
                jitter=jitter,
            )
        else:
            client_link = ClientLink(client_id, config, jitter=jitter)
        generation = self._generations.get(client_id, 0) + 1
        self._generations[client_id] = generation
        if generation > 1:
            self.reconnect_count += 1
            if self._tm_reconnects is not None:
                self._tm_reconnects.increment()
        self._links[client_id] = client_link
        self._handlers[client_id] = handler
        if self._fifo_last is not None:
            # The FIFO contract is per connection: a rejoining client's
            # fresh link starts its own delivery order.
            self._fifo_last.pop(client_id, None)
        return client_link

    def disconnect(self, client_id: int) -> None:
        if self._pending:
            # What was sent before the close reaches the old connection
            # first (scheduled deliveries then die with its generation).
            frame = self._pending.pop(client_id, None)
            if frame is not None:
                self._send_frame(client_id, frame)
        link = self._links.pop(client_id, None)
        if link is not None:
            stats = link.stats
            self._closed_stats.append(stats)
            self._closed_bytes += stats.bytes
            self._closed_packets += stats.packets
        self._handlers.pop(client_id, None)

    def is_connected(self, client_id: int) -> bool:
        return client_id in self._links

    @property
    def client_count(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, client_id: int, packet: Packet) -> None:
        """Queue ``packet`` for delivery to ``client_id``."""
        pending = self._pending
        if pending is None:
            self._send_frame(client_id, (packet,))
            return
        frame = pending.get(client_id)
        if frame is not None:
            frame.append(packet)
        elif client_id in self._links:
            pending[client_id] = [packet]
        # else: client raced a disconnect; drop silently like a closed socket

    def cork(self) -> None:
        """Hold every :meth:`send` back, per client, until :meth:`uncork`.

        The caller pairs the two with ``try``/``finally``: packets sent
        before an error had reached their links without a cork, so they
        still must, and the transport is never left corked.
        """
        if self._pending is not None:
            raise RuntimeError("transport is already corked")
        self._pending = {}

    def uncork(self) -> None:
        """Send each client's pending packets as one frame, in the order
        clients were first sent to. A no-op when not corked."""
        pending, self._pending = self._pending, None
        if pending:
            for client_id, frame in pending.items():
                self._send_frame(client_id, frame)

    @property
    def pending_packets(self) -> int:
        """Packets held in pending frames; 0 whenever uncorked."""
        if self._pending is None:
            return 0
        return sum(len(frame) for frame in self._pending.values())

    def _send_frame(self, client_id: int, packets: Sequence[Packet]) -> None:
        """Transmit ``packets`` to one client as one frame leaving now."""
        link = self._links.get(client_id)
        if link is None:
            return  # client raced a disconnect; drop silently like a closed socket
        now = self.sim.now
        deliveries = link.transmit_frame(packets, now)
        if self._tm_sent is not None:
            self._tm_sent.increment(len(packets))
        if None in deliveries:
            # Lost on the wire by the fault layer. Bytes were already
            # accounted (the server did transmit them); nothing arrives.
            dropped = deliveries.count(None)
            self.packets_dropped += dropped
            if self._tm_dropped is not None:
                self._tm_dropped.increment(dropped)
            packets = [p for p, at in zip(packets, deliveries) if at is not None]
            deliveries = [at for at in deliveries if at is not None]
        handler = self._handlers[client_id]
        if self.synchronous_delivery:
            self._record_latencies([at - now for at in deliveries])
            if self._fifo_last is not None:
                for delivered_at in deliveries:
                    self._check_fifo(client_id, delivered_at)
            new = tuple.__new__
            for packet, delivered_at in zip(packets, deliveries):
                handler(new(DeliveredPacket, (packet, now, delivered_at)))
            return
        generation = self._generations.get(client_id, 0)
        for packet, delivered_at in zip(packets, deliveries):
            self.sim.schedule_at(
                delivered_at,
                self._scheduled_delivery(client_id, generation, handler, packet, now),
            )

    def _scheduled_delivery(
        self,
        client_id: int,
        generation: int,
        handler: PacketHandler,
        packet: Packet,
        sent_at: float,
    ) -> Callable[[], None]:
        def deliver() -> None:
            if self._generations.get(client_id, 0) != generation:
                # The sending connection closed and the client id was
                # reused; this packet belongs to the dead socket.
                return
            if client_id not in self._links:
                return
            delivered_at = self.sim.now
            self._record_latencies((delivered_at - sent_at,))
            if self._fifo_last is not None:
                self._check_fifo(client_id, delivered_at)
            handler(tuple.__new__(DeliveredPacket, (packet, sent_at, delivered_at)))

        return deliver

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _all_stats(self):
        yield from (link.stats for link in self._links.values())
        yield from self._closed_stats

    def total_bytes(self) -> int:
        return self._closed_bytes + sum(
            link.stats.bytes for link in self._links.values()
        )

    def total_packets(self) -> int:
        return self._closed_packets + sum(
            link.stats.packets for link in self._links.values()
        )

    def bytes_by_kind(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for stats in self._all_stats():
            for kind, count in stats.bytes_by_kind.items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    def packets_by_kind(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for stats in self._all_stats():
            for kind, count in stats.packets_by_kind.items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    def link(self, client_id: int) -> ClientLink | None:
        return self._links.get(client_id)
