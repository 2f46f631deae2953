"""Experiment configuration and factories."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

from repro.bots.workload import BUILDER_MIX, BehaviorMix, ChurnSpec, WorkloadSpec
from repro.core.bounds import Bounds
from repro.faults.plan import DegradedWindow, FaultPlan
from repro.core.partition import (
    ChunkPartitioner,
    DyconitPartitioner,
    GlobalPartitioner,
    RegionPartitioner,
)
from repro.core.policy import Policy
from repro.policies import (
    AdaptiveBoundsPolicy,
    DistanceBasedPolicy,
    ElasticPartitioningPolicy,
    FixedBoundsPolicy,
    InfiniteBoundsPolicy,
    InterestCutoffPolicy,
    ZeroBoundsPolicy,
)
from repro.server.config import ServerConfig
from repro.server.costmodel import CostCoefficients

#: Policy names accepted by :func:`make_policy`, in presentation order.
POLICY_NAMES = (
    "vanilla", "zero", "infinite", "fixed", "aoi", "distance", "adaptive", "elastic",
)


def make_policy(name: str, **kwargs) -> Policy | None:
    """Instantiate a policy by its experiment name.

    ``"vanilla"`` returns ``None``: the runner then puts the server in
    direct mode (no middleware at all).
    """
    factories = {
        "zero": ZeroBoundsPolicy,
        "infinite": InfiniteBoundsPolicy,
        "fixed": FixedBoundsPolicy,
        "aoi": InterestCutoffPolicy,
        "distance": DistanceBasedPolicy,
        "adaptive": AdaptiveBoundsPolicy,
        "elastic": ElasticPartitioningPolicy,
    }
    if name == "vanilla":
        return None
    if name not in factories:
        raise ValueError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
    return factories[name](**kwargs)


def make_partitioner(name: str) -> DyconitPartitioner:
    """``"chunk"``, ``"region:N"``, or ``"global"``."""
    if name == "chunk":
        return ChunkPartitioner()
    if name == "global":
        return GlobalPartitioner()
    if name.startswith("region:"):
        return RegionPartitioner(region_size=int(name.split(":", 1)[1]))
    raise ValueError(f"unknown partitioner {name!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one experiment point."""

    name: str = "experiment"
    policy: str = "adaptive"
    policy_kwargs: dict = field(default_factory=dict)
    partitioner: str = "chunk"
    merging_enabled: bool = True

    bots: int = 50
    movement: str = "hotspot"
    behavior: BehaviorMix = field(default_factory=lambda: BUILDER_MIX)
    act_interval_ms: float = 100.0
    mob_count: int = 0

    duration_ms: float = 30_000.0
    #: Measurements (bandwidth rate, tick percentiles) use the window
    #: [warmup_ms, duration_ms); the join burst and policy settling are
    #: excluded, matching how the paper reports steady-state numbers.
    warmup_ms: float = 10_000.0
    seed: int = 42
    view_distance: int = 5
    synchronous_delivery: bool = True
    record_latencies: bool = False
    cost: CostCoefficients = field(default_factory=CostCoefficients)
    fixed_bounds: Bounds | None = None
    #: Fleet-wide network fault plan (None = no fault layer at all).
    faults: FaultPlan | None = None
    #: Session churn schedule (None = stable population).
    churn: ChurnSpec | None = None
    #: Checked mode (S15): audit middleware invariants every N ticks
    #: during the run (0 = off); any violation aborts the experiment.
    audit_every_n_ticks: int = 0
    #: S19 storage backend spec for dyconit subscription state
    #: ("memory", "sqlite", "sqlite:///path").
    state_store: str = "memory"
    #: Sharded world (S16): number of logical shards. 1 = the classic
    #: single-server path; N > 1 runs a :class:`ShardedCluster` with
    #: cross-shard dyconit federation (requires a dyconit policy).
    shards: int = 1
    #: Width, in chunks, of the vertical ownership strips the cluster
    #: router hands to shards round-robin.
    strip_width: int = 4
    #: S18: run each shard's tick phase in a persistent worker process
    #: (:class:`~repro.cluster.runner.ParallelShardRunner`). Packet
    #: streams are byte-identical to the serial sharded run; only
    #: wall-clock behaviour changes.
    parallel_ticks: bool = False

    def __post_init__(self) -> None:
        if self.warmup_ms >= self.duration_ms:
            raise ValueError(
                f"warmup ({self.warmup_ms}) must be shorter than the run "
                f"({self.duration_ms})"
            )
        if self.shards < 1:
            raise ValueError(f"shard count must be >= 1, got {self.shards}")
        if self.shards > 1 and self.policy == "vanilla":
            raise ValueError(
                "a multi-shard cluster federates through inter-server "
                "dyconits; policy='vanilla' (direct mode) only supports "
                "shards=1"
            )
        if self.parallel_ticks and self.shards < 2:
            raise ValueError(
                "parallel_ticks parallelizes across shards; it needs "
                "shards >= 2"
            )
        if self.parallel_ticks and not self.synchronous_delivery:
            raise ValueError(
                "parallel_ticks requires synchronous_delivery: scheduled "
                "packet deliveries would land in the parent simulation, "
                "not the shard's worker process"
            )

    def with_(self, **overrides) -> "ExperimentConfig":
        """A copy with fields replaced (sweep helper)."""
        return replace(self, **overrides)

    def build_policy(self) -> Policy | None:
        kwargs = dict(self.policy_kwargs)
        if self.policy == "fixed" and self.fixed_bounds is not None:
            kwargs.setdefault("bounds", self.fixed_bounds)
        return make_policy(self.policy, **kwargs)

    def build_server_config(self) -> ServerConfig:
        return ServerConfig(
            view_distance=self.view_distance,
            mob_count=self.mob_count,
            synchronous_delivery=self.synchronous_delivery,
            cost=self.cost,
            faults=self.faults,
            audit_every_n_ticks=self.audit_every_n_ticks,
            state_store=self.state_store,
            record_latencies=self.record_latencies,
            merging_enabled=self.merging_enabled,
            seed=self.seed,
        )

    def build_workload_spec(self) -> WorkloadSpec:
        return WorkloadSpec(
            bots=self.bots,
            seed=self.seed,
            movement=self.movement,
            behavior=self.behavior,
            act_interval_ms=self.act_interval_ms,
        )


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-safe dictionary of a config (inverse of :func:`config_from_dict`).

    Nested value objects (behavior mix, cost model, bounds, fault plan,
    churn spec) become plain dicts via :func:`dataclasses.asdict`.
    """
    return asdict(config)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from its dict form.

    Restores every nested value object to its real type — including the
    fault plan and churn spec, which a plain ``ExperimentConfig(**data)``
    would silently leave as dicts (frozen dataclasses don't type-check
    their fields).
    """
    data = dict(data)
    behavior = BehaviorMix(**data.pop("behavior"))
    cost = CostCoefficients(**data.pop("cost"))
    fixed_bounds = data.pop("fixed_bounds", None)
    faults = data.pop("faults", None)
    churn = data.pop("churn", None)
    if faults is not None and not isinstance(faults, FaultPlan):
        faults = dict(faults)
        windows = tuple(
            window if isinstance(window, DegradedWindow) else DegradedWindow(**window)
            for window in faults.pop("degraded_windows", ())
        )
        faults = FaultPlan(degraded_windows=windows, **faults)
    if churn is not None and not isinstance(churn, ChurnSpec):
        churn = ChurnSpec(**churn)
    if fixed_bounds is not None and not isinstance(fixed_bounds, Bounds):
        fixed_bounds = Bounds(**fixed_bounds)
    return ExperimentConfig(
        behavior=behavior,
        cost=cost,
        fixed_bounds=fixed_bounds,
        faults=faults,
        churn=churn,
        **data,
    )
