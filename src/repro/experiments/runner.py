"""Experiment execution."""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, fields

from repro.bots.workload import ChurnWorkload, Workload
from repro.cluster import ParallelShardRunner, ShardedCluster
from repro.core.stats import DyconitStats
from repro.experiments.configs import ExperimentConfig, make_partitioner
from repro.metrics.summary import Summary, describe
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.telemetry.hub import Telemetry, get_telemetry


@dataclass
class ExperimentResult:
    """Everything measured in one experiment point."""

    config: ExperimentConfig

    # Traffic (whole run and steady-state window).
    bytes_total: int = 0
    packets_total: int = 0
    steady_bytes_per_second: float = 0.0
    steady_packets_per_second: float = 0.0
    steady_bytes_per_player_per_second: float = 0.0
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    packets_by_kind: dict[str, int] = field(default_factory=dict)

    # Server health over the steady window.
    tick_duration: Summary = field(default_factory=lambda: describe([]))
    effective_tick_rate_hz: float = 0.0

    # Middleware behaviour.
    dyconit_stats: dict[str, float] = field(default_factory=dict)
    update_queue_delay_p50_ms: float = 0.0
    update_queue_delay_p99_ms: float = 0.0

    # Client-observed inconsistency.
    positional_error_mean: float = 0.0
    positional_error_p95: float = 0.0
    positional_error_p99: float = 0.0
    positional_error_max: float = 0.0
    staleness_p50_ms: float = 0.0
    staleness_p99_ms: float = 0.0

    # Network latency (exact when config.record_latencies, reservoir-
    # sampled otherwise).
    packet_latency: Summary = field(default_factory=lambda: describe([]))

    # Fault layer & churn (E9).
    packets_dropped: int = 0
    reconnects: int = 0
    churn_crashes: int = 0
    churn_rejoins: int = 0

    # Sharded cluster (E11); all zero on single-server runs.
    shards: int = 1
    handoffs: int = 0
    handoffs_cancelled: int = 0
    entity_transfers: int = 0
    intershard_bytes: int = 0
    intershard_messages: int = 0
    intershard_bytes_per_second: float = 0.0
    intershard_messages_by_kind: dict[str, int] = field(default_factory=dict)
    shard_tick_p95_ms: list[float] = field(default_factory=list)
    shard_players: list[int] = field(default_factory=list)

    # Timelines for the dynamics figure.
    bandwidth_timeline: list[tuple[float, float]] = field(default_factory=list)
    player_timeline: list[tuple[float, float]] = field(default_factory=list)
    tick_timeline: list[tuple[float, float]] = field(default_factory=list)
    factor_timeline: list[tuple[float, float]] = field(default_factory=list)

    def as_row(self) -> dict[str, object]:
        """Flat row used by the table-producing figures."""
        return {
            "policy": self.config.policy,
            "bots": self.config.bots,
            "kB/s": self.steady_bytes_per_second / 1e3,
            "pkts/s": self.steady_packets_per_second,
            "p95 tick ms": self.tick_duration.p95,
            "merge %": 100.0 * self.dyconit_stats.get("merge_ratio", 0.0),
            "err p99": self.positional_error_p99,
            "stale p99 ms": self.staleness_p99_ms,
        }


def run_experiment(
    config: ExperimentConfig,
    hooks=None,
    telemetry: Telemetry | None = None,
) -> ExperimentResult:
    """Run one experiment point in a fresh simulation.

    ``hooks`` is an optional list of ``(time_ms, callable(server, workload))``
    pairs the dynamics experiment uses to inject load bursts.

    ``telemetry`` defaults to the ambient hub (installed by the CLI's
    ``--telemetry`` flag); when enabled, the run is instrumented
    end-to-end — tick-phase spans, middleware counters and decisions on
    one timeline — and the whole run is wrapped in an ``experiment.run``
    span labeled with the config.
    """
    if telemetry is None:
        telemetry = get_telemetry()
    sim = Simulation(telemetry=telemetry)
    if telemetry.enabled:
        telemetry.set_time_source(lambda: sim.now)
    policy = None
    if config.shards > 1:
        # Sharded world (S16): each shard is a full GameServer; the
        # facade keeps the single-server surface the workload expects.
        use_parallel = config.parallel_ticks
        if use_parallel and multiprocessing.current_process().daemon:
            # A daemonic process (an S14 sweep worker) cannot have
            # children, so the parallel runtime cannot spawn its shard
            # workers here. Fall back to the serial cluster: the S18
            # contract makes the result byte-identical either way, so
            # the cell's output — and hence its cached payload and the
            # merged store — does not depend on where it ran.
            use_parallel = False
            telemetry.counter("cluster_parallel_ticks_degraded_total").increment()
        server = (ParallelShardRunner if use_parallel else ShardedCluster)(
            sim,
            shards=config.shards,
            strip_width=config.strip_width,
            config=config.build_server_config(),
            policy_factory=config.build_policy,
            partitioner_factory=lambda: make_partitioner(config.partitioner),
            telemetry=telemetry,
        )
    else:
        policy = config.build_policy()
        server = GameServer(
            sim,
            config=config.build_server_config(),
            policy=policy,
            partitioner=None if policy is None else make_partitioner(config.partitioner),
            direct_mode=policy is None,
            telemetry=telemetry,
        )
    server.start()

    if config.churn is not None:
        workload: Workload = ChurnWorkload(
            sim, server, config.build_workload_spec(), churn=config.churn
        )
    else:
        workload = Workload(sim, server, config.build_workload_spec())
    workload.start()

    if hooks:
        for time_ms, hook in hooks:
            sim.schedule_at(time_ms, _bind_hook(hook, server, workload))

    with telemetry.span(
        "experiment.run", name=config.name, policy=config.policy, bots=config.bots
    ):
        sim.run_until(config.duration_ms)

    if isinstance(server, ParallelShardRunner):
        # Pull transport/metrics/dyconit state out of the workers and
        # shut them down before reading the handles.
        server.finalize()
    if isinstance(server, ShardedCluster):
        result = collect_result(config, server.shards, workload)
        _collect_cluster(result, server)
    else:
        result = collect_result(config, [server], workload)
        if hasattr(policy, "factor_history"):
            result.factor_timeline = list(policy.factor_history)
    return result


def _bind_hook(hook, server, workload):
    def fire() -> None:
        hook(server, workload)

    return fire


def collect_result(
    config: ExperimentConfig, servers: list[GameServer], workload: Workload
) -> ExperimentResult:
    """Assemble an :class:`ExperimentResult` from a finished run on
    ``servers`` — one :class:`GameServer`, or a cluster's shards.

    Traffic and middleware counters sum across servers; tick health
    pools every server's steady ticks. Client-observed consistency comes
    from the workload, which measures against the authoritative
    (cross-shard) world view.
    """
    result = ExperimentResult(config=config)
    for server in servers:
        transport = server.transport
        result.bytes_total += transport.total_bytes()
        result.packets_total += transport.total_packets()
        for kind, count in transport.bytes_by_kind().items():
            result.bytes_by_kind[kind] = result.bytes_by_kind.get(kind, 0) + count
        for kind, count in transport.packets_by_kind().items():
            result.packets_by_kind[kind] = result.packets_by_kind.get(kind, 0) + count

    # ExperimentConfig validates warmup_ms < duration_ms: the steady
    # window is never empty.
    window_s = (config.duration_ms - config.warmup_ms) / 1000.0
    total_s = config.duration_ms / 1000.0
    steady_bytes = sum(
        _series_growth(
            server.metrics.series("bytes_total"), config.warmup_ms, config.duration_ms
        )
        for server in servers
    )
    result.steady_bytes_per_second = steady_bytes / window_s
    players = max(1, config.bots)
    result.steady_bytes_per_player_per_second = result.steady_bytes_per_second / players
    # Whole-run packets over whole-run time: bytes are the primary
    # bandwidth metric, packets a secondary view without a steady series.
    result.steady_packets_per_second = result.packets_total / total_s

    pooled_ticks: list[float] = []
    for server in servers:
        pooled_ticks.extend(
            server.metrics.series("tick_duration_ms").window(
                config.warmup_ms, config.duration_ms
            )
        )
    result.tick_duration = describe(pooled_ticks)
    # Per-server tick rate: every shard ticks on its own schedule.
    result.effective_tick_rate_hz = len(pooled_ticks) / len(servers) / window_s

    if servers[0].dyconits is not None:
        result.dyconit_stats = _merge_dyconit_stats(
            [server.dyconits.stats for server in servers]
        )
        delay_hists = [
            server.metrics.histogram("update_queue_delay_ms", min_value=0.1)
            for server in servers
        ]
        result.update_queue_delay_p50_ms = max(hist.quantile(0.50) for hist in delay_hists)
        result.update_queue_delay_p99_ms = max(hist.quantile(0.99) for hist in delay_hists)

    result.positional_error_mean = workload.error_histogram.mean
    result.positional_error_p95 = workload.error_histogram.quantile(0.95)
    result.positional_error_p99 = workload.error_histogram.quantile(0.99)
    result.positional_error_max = max(0.0, workload.error_histogram.max_value)
    result.staleness_p50_ms = workload.staleness_histogram.quantile(0.50)
    result.staleness_p99_ms = workload.staleness_histogram.quantile(0.99)

    if config.record_latencies:
        latencies: list[float] = []
        for server in servers:
            latencies.extend(server.transport.latencies_ms)
        result.packet_latency = describe(latencies)

    result.packets_dropped = sum(server.transport.packets_dropped for server in servers)
    result.reconnects = sum(server.transport.reconnect_count for server in servers)
    if isinstance(workload, ChurnWorkload):
        result.churn_crashes = workload.crashes
        result.churn_rejoins = workload.rejoins

    # Timelines: servers tick on the same cadence, so merge pointwise —
    # bandwidth and players sum, per-tick time takes the slowest server
    # (a cluster's critical path).
    bytes_view = _merge_series(
        [server.metrics.series("bytes_total") for server in servers], sum
    )
    result.bandwidth_timeline = _rate_timeline(bytes_view)
    player_view = _merge_series(
        [server.metrics.series("player_count") for server in servers], sum
    )
    result.player_timeline = list(zip(player_view.times, player_view.values))
    tick_view = _merge_series(
        [server.metrics.series("tick_duration_ms") for server in servers], max
    )
    result.tick_timeline = list(zip(tick_view.times, tick_view.values))
    return result


def _collect_cluster(result: ExperimentResult, cluster: ShardedCluster) -> None:
    """Fill the per-shard and inter-shard fields of a sharded run."""
    config = result.config
    result.shards = len(cluster.shards)
    for shard in cluster.shards:
        ticks = shard.metrics.series("tick_duration_ms").window(
            config.warmup_ms, config.duration_ms
        )
        result.shard_tick_p95_ms.append(describe(ticks).p95)
        result.shard_players.append(len(shard.sessions))
    result.handoffs = cluster.handoffs
    result.handoffs_cancelled = cluster.handoffs_cancelled
    result.intershard_bytes = cluster.bus.total_bytes
    result.intershard_messages = cluster.bus.total_messages
    result.intershard_messages_by_kind = dict(cluster.bus.messages_by_kind)
    result.entity_transfers = cluster.bus.messages_by_kind.get("EntityTransfer", 0)
    result.intershard_bytes_per_second = cluster.bus.total_bytes / (
        config.duration_ms / 1000.0
    )


def _merge_dyconit_stats(stats_list: list[DyconitStats]) -> dict[str, float]:
    """Middleware counters summed field by field; ``as_dict`` derives the
    ratios from the summed counts."""
    return DyconitStats(
        **{
            spec.name: sum(getattr(stats, spec.name) for stats in stats_list)
            for spec in fields(DyconitStats)
        }
    ).as_dict()


class _SeriesView:
    """Read-only (times, values) pair quacking like a metrics series."""

    def __init__(self, times: list[float], values: list[float]) -> None:
        self.times = times
        self.values = values

    def __len__(self) -> int:
        return len(self.times)


def _merge_series(series_list, combine) -> _SeriesView:
    """Combine same-cadence cumulative/gauge series pointwise by time."""
    by_time: dict[float, list[float]] = {}
    for series in series_list:
        for time, value in zip(series.times, series.values):
            by_time.setdefault(time, []).append(value)
    times = sorted(by_time)
    return _SeriesView(times, [combine(by_time[time]) for time in times])


def _series_growth(series, start: float, end: float) -> float:
    """Growth of a cumulative series across [start, end)."""
    value_at_start = None
    value_at_end = None
    for time, value in zip(series.times, series.values):
        if time < start:
            value_at_start = value
        if time < end:
            value_at_end = value
    if value_at_end is None:
        return 0.0
    if value_at_start is None:
        value_at_start = 0.0
    return value_at_end - value_at_start


def _rate_timeline(series, bucket_ms: float = 1000.0) -> list[tuple[float, float]]:
    """Convert a cumulative byte series to per-second rates per bucket."""
    if len(series) < 2:
        return []
    timeline: list[tuple[float, float]] = []
    bucket_start = series.times[0]
    bucket_value = series.values[0]
    for time, value in zip(series.times, series.values):
        while time >= bucket_start + bucket_ms:
            elapsed_s = bucket_ms / 1000.0
            timeline.append(((bucket_start + bucket_ms), (value - bucket_value) / elapsed_s))
            bucket_start += bucket_ms
            bucket_value = value
    return timeline
