"""Per-client link model.

Each connected client has a dedicated :class:`ClientLink` with a
configurable downstream bandwidth and base propagation delay. Packet
delivery time is::

    send_time + propagation + serialization + queueing

where serialization is ``bytes / bandwidth`` and queueing arises when the
link is already busy transmitting earlier packets (a simple FIFO
store-and-forward queue, like a kernel socket buffer draining into a
capped pipe).

The link also accumulates byte/packet counters that the transport exposes
to the metrics layer — this is where the paper's bandwidth numbers come
from.

Two entry points, one arithmetic. :meth:`ClientLink.transmit` is the
per-packet path with the fault-layer hooks; :meth:`ClientLink.transmit_frame`
takes everything the transport queued for this client at one simulated
instant (one frame per client per tick, see ``net/transport.py``). On a
healthy, jitter-free link the frame runs the same float operations in the
same order per packet — every delivery time is bit-identical to sending
the packets one by one — but reads the link state once, writes it once and
commits :class:`LinkStats` once per run of same-class packets. A link with
a jitter source or fault hooks must keep its per-packet draw order, so its
frame is simply a loop over :meth:`~ClientLink.transmit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.net.protocol import Packet


@dataclass(frozen=True, slots=True)
class LinkConfig:
    """Link parameters; defaults model a broadband home connection."""

    bandwidth_bps: float = 20_000_000.0  # 20 Mbit/s downstream
    latency_ms: float = 25.0  # one-way propagation delay
    jitter_ms: float = 0.0  # uniform extra delay in [0, jitter_ms]

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_bps}")
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency and jitter must be non-negative")


@dataclass
class LinkStats:
    """Cumulative accounting for one direction of a link."""

    packets: int = 0
    bytes: int = 0
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    packets_by_kind: dict[str, int] = field(default_factory=dict)

    def add(self, kind: str, packets: int, size: int) -> None:
        """Account ``packets`` packets of one kind totalling ``size`` bytes."""
        self.packets += packets
        self.bytes += size
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
        self.packets_by_kind[kind] = self.packets_by_kind.get(kind, 0) + packets


class ClientLink:
    """Simulated downstream pipe from server to one client."""

    def __init__(self, client_id: int, config: LinkConfig, jitter=None) -> None:
        self.client_id = client_id
        self.config = config
        #: Simulated time at which the pipe finishes its current backlog.
        self._busy_until = 0.0
        #: Delivery time of the most recent packet; later packets are
        #: clamped to it so per-packet jitter can never reorder the link
        #: (the FIFO-per-link contract the transport documents).
        self._last_delivery_time = 0.0
        self.stats = LinkStats()
        #: Optional callable returning jitter in ms (seeded per client).
        self._jitter = jitter

    def transmit(self, packet: Packet, now: float) -> float | None:
        """Account for ``packet`` leaving now; return its delivery time.

        Returns ``None`` when the packet is lost on the wire (only
        :class:`~repro.faults.link.FaultyLink` does this). The bytes are
        still accounted — the server transmitted them; the drop happens
        downstream of its egress.
        """
        size = packet.wire_size()
        self.stats.add(packet.kind, 1, size)
        serialization_ms = size * 8.0 / self.bandwidth_at(now) * 1000.0
        start = max(now, self._busy_until)
        self._busy_until = start + serialization_ms
        if self.consume_drop(now):
            return None
        jitter_ms = self._jitter() if self._jitter is not None else 0.0
        delivery = (
            self._busy_until + self.config.latency_ms + jitter_ms
            + self.extra_delay_ms(now)
        )
        # Monotonic clamp: a smaller jitter draw on a later packet must
        # not let it leapfrog an earlier one. Equal times preserve send
        # order (the event queue breaks ties in scheduling order).
        if delivery < self._last_delivery_time:
            delivery = self._last_delivery_time
        self._last_delivery_time = delivery
        return delivery

    def transmit_frame(
        self, packets: Sequence[Packet], now: float
    ) -> list[float | None]:
        """Account for ``packets`` all leaving at ``now``, in order;
        return one delivery time per packet (``None`` = lost).

        Same arithmetic as :meth:`transmit` packet by packet (the jitter
        and spike terms of a healthy link are exact zeros, so leaving
        them out moves no bit), with the link state read and written
        once and the stats committed once per run of same-class packets.
        """
        if self._jitter is not None or type(self) is not ClientLink:
            # A jitter source or a subclass's fault hooks draw per
            # packet in a fixed order: nothing reordered, nothing skipped.
            return [self.transmit(packet, now) for packet in packets]
        bandwidth = self.config.bandwidth_bps
        latency_ms = self.config.latency_ms
        busy = self._busy_until
        last = self._last_delivery_time
        deliveries: list[float | None] = []
        run_class = None
        run_packets = run_bytes = 0
        for packet in packets:
            size = packet.wire_size()
            if packet.__class__ is not run_class:
                if run_packets:
                    self.stats.add(run_class.__name__, run_packets, run_bytes)
                run_class = packet.__class__
                run_packets = run_bytes = 0
            run_packets += 1
            run_bytes += size
            busy = (busy if busy > now else now) + size * 8.0 / bandwidth * 1000.0
            delivery = busy + latency_ms
            if delivery < last:
                delivery = last
            last = delivery
            deliveries.append(delivery)
        if run_packets:
            self.stats.add(run_class.__name__, run_packets, run_bytes)
        self._busy_until = busy
        self._last_delivery_time = last
        return deliveries

    # -- fault-layer hooks (no-ops on a healthy link) -------------------

    def bandwidth_at(self, now: float) -> float:
        """Effective serialization bandwidth at ``now`` in bits/s."""
        return self.config.bandwidth_bps

    def consume_drop(self, now: float) -> bool:
        """Decide whether the packet just serialized is lost."""
        return False

    def extra_delay_ms(self, now: float) -> float:
        """Additional one-off delay (latency spikes) for this packet."""
        return 0.0

    def queueing_delay(self, now: float) -> float:
        """Backlog currently waiting ahead of a new packet, in ms."""
        return max(0.0, self._busy_until - now)
