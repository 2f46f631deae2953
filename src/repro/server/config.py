"""Server configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan
from repro.net.link import LinkConfig
from repro.server.costmodel import CostCoefficients

#: The server ticks at 20 Hz.
TICK_INTERVAL_MS = 50.0
#: Every session is sent a keepalive this often.
KEEPALIVE_INTERVAL_MS = 5000.0
#: Ambient mobs take a random step every this many ticks.
MOB_STEP_TICKS = 4


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Tunable parameters of the game server.

    Defaults model a vanilla Minecraft-like service: 20 ticks/s, a
    5-chunk view distance (11x11 visible chunks), and broadband client
    links.
    """

    view_distance: int = 5
    link: LinkConfig = field(default_factory=LinkConfig)
    cost: CostCoefficients = field(default_factory=CostCoefficients)
    #: Ambient mobs wandering near the spawn area (0 disables).
    mob_count: int = 0
    #: Deliver packets synchronously (latency still modelled & recorded);
    #: big capacity sweeps enable this to cut simulation overhead.
    synchronous_delivery: bool = False
    #: S19 storage backend for dyconit subscription state: a registry
    #: spec ("memory", "sqlite", "sqlite:///path"). The store alone
    #: decides a dyconit's representation: "memory" keeps S17 flat
    #: columns, the sqlite row store batches each commit, due pass and
    #: retune per dyconit (S25).
    state_store: str = "memory"
    #: Fault plan applied to every client link (None = no fault layer).
    faults: FaultPlan | None = None
    #: Checked mode (S15): run the cross-structure invariant audit every
    #: N ticks and abort the run on the first violation. 0 disables it
    #: entirely — the tick path then pays a single ``is None`` check,
    #: matching the telemetry no-op pattern.
    audit_every_n_ticks: int = 0
    #: Keep every packet latency (E4's exact CDF) instead of a bounded
    #: reservoir sample.
    record_latencies: bool = False
    #: Merge queued updates to the same object (E8a turns it off).
    merging_enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.view_distance < 1:
            raise ValueError(f"view distance must be >= 1, got {self.view_distance}")
        if self.mob_count < 0:
            raise ValueError(f"mob count must be >= 0, got {self.mob_count}")
        if self.audit_every_n_ticks < 0:
            raise ValueError(
                f"audit period must be >= 0 ticks, got {self.audit_every_n_ticks}"
            )
