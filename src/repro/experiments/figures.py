"""Per-figure experiment drivers (E1..E9, E11).

Each function regenerates one table/figure of the evaluation: it runs the
necessary experiment points and returns ``{"rows": [...], "table": str,
...}`` where ``rows`` carries the same series the paper plots and
``table`` is a rendered ASCII rendition. The ``benchmarks/`` directory
exposes one pytest-benchmark target per function; EXPERIMENTS.md records
paper-vs-measured for each.

Every sweep-shaped driver has the same shape (S34): one base
:class:`ExperimentConfig` holding the window its cells share, a dict of
points mapping each point's key to its ``with_(...)`` overrides (cell
name included), :func:`_sweep` to run them, and one row dict per point
rendered by :func:`_table`.
"""

from __future__ import annotations

import math

from repro.bots.workload import ChurnSpec
from repro.experiments.configs import ExperimentConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.faults.plan import FaultPlan
from repro.metrics.report import render_table
from repro.metrics.summary import percentile

#: Order policies appear in the figures. "adaptive-bw" (E1 only) is the
#: adaptive policy given an explicit bandwidth budget of 25% of the
#: measured zero-bounds baseline — the paper's dynamically-managed
#: showcase; it is synthesized inside bandwidth_by_policy because it
#: needs the baseline measurement first.
E1_POLICIES = (
    "vanilla", "zero", "fixed", "aoi", "distance", "adaptive", "adaptive-bw", "infinite",
)
E7_POLICIES = ("vanilla", "zero", "fixed", "aoi", "distance", "adaptive", "infinite")


def _sweep(base: ExperimentConfig, points: dict, jobs: int, cache_dir) -> dict:
    """Run ``base.with_(**overrides)`` for every point, in point order.

    ``points`` maps each point's key to its overrides; the results come
    back keyed the same way.
    """
    cells = [base.with_(**overrides) for overrides in points.values()]
    # A cell that raises does so on every attempt, so none is retried.
    results = run_cells(cells, jobs=jobs, cache_dir=cache_dir, retries=0)
    return dict(zip(points, results))


def _table(rows: list[dict], title: str, columns: list[str] | None = None) -> str:
    """Render row dicts; the columns are the first row's keys unless given."""
    columns = columns or list(rows[0])
    return render_table(
        columns,
        [[row[column] for column in columns] for row in rows],
        title=title,
    )


# ----------------------------------------------------------------------
# E1 — bandwidth by policy (abstract claim: up to 85% reduction)
# ----------------------------------------------------------------------


def bandwidth_by_policy(
    bots: int = 100,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 10_000.0,
    seed: int = 42,
    policies: tuple[str, ...] = E1_POLICIES,
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E1: steady-state outgoing bandwidth per policy, same workload.

    Uses the paper's motivating *village* workload: players packed around
    one center, so traffic is update-dominated and classic interest
    management has nothing left to filter.
    """
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
        movement="village",
    )
    points = {
        policy: dict(name=f"e1-{policy}", policy=policy)
        for policy in policies
        if policy != "adaptive-bw"
    }
    results: dict[str, ExperimentResult] = _sweep(base, points, jobs, cache_dir)

    baseline = results.get("zero") or results.get("vanilla")
    baseline_rate = baseline.steady_bytes_per_second if baseline else 0.0

    if "adaptive-bw" in policies and baseline_rate > 0:
        # The budgeted cell depends on the measured baseline, so it runs
        # as a second (single-cell) stage after the first batch.
        point = dict(
            name="e1-adaptive-bw",
            policy="adaptive",
            policy_kwargs={"bandwidth_budget_bytes_per_s": 0.25 * baseline_rate},
        )
        results.update(_sweep(base, {"adaptive-bw": point}, jobs, cache_dir))
    baseline_update_bytes = _update_bytes(baseline) if baseline else 0

    rows = []
    for policy, result in results.items():
        rate = result.steady_bytes_per_second
        reduction = 100.0 * (1.0 - rate / baseline_rate) if baseline_rate else 0.0
        update_bytes = _update_bytes(result)
        update_reduction = (
            100.0 * (1.0 - update_bytes / baseline_update_bytes)
            if baseline_update_bytes
            else 0.0
        )
        rows.append(
            {
                "policy": policy,
                "kB/s": rate / 1e3,
                "B/s/player": result.steady_bytes_per_player_per_second,
                "reduction %": reduction,
                "upd reduction %": update_reduction,
                "merge %": 100.0 * result.dyconit_stats.get("merge_ratio", 0.0),
            }
        )
    table = _table(rows, f"E1 bandwidth by policy ({bots} bots, village workload)")
    return {"rows": rows, "table": table, "results": results}


#: Packet kinds that are state transfer / liveness, not update
#: propagation: dyconits govern the rest.
_NON_UPDATE_KINDS = frozenset(
    {"ChunkDataPacket", "ChunkUnloadPacket", "JoinGamePacket", "KeepAlivePacket"}
)


def _update_bytes(result: ExperimentResult) -> int:
    """Bytes of update-propagation traffic (what dyconits govern)."""
    return sum(
        count
        for kind, count in result.bytes_by_kind.items()
        if kind not in _NON_UPDATE_KINDS
    )


# ----------------------------------------------------------------------
# E2 — player capacity (abstract claim: up to 40% more players)
# ----------------------------------------------------------------------


def capacity_sweep(
    policies: tuple[str, ...] = ("vanilla", "adaptive"),
    bot_counts: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350),
    duration_ms: float = 20_000.0,
    warmup_ms: float = 10_000.0,
    tick_budget_ms: float = 50.0,
    seed: int = 42,
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E2: p95 tick duration vs player count; capacity at the budget.

    Capacity is the largest player count whose steady-state p95 tick
    duration stays within the 50 ms budget, linearly interpolated between
    the last passing and first failing sweep points.

    The (policy, count) cells queue policy by policy, count by count, and
    run in rounds of the next ``max(1, jobs)`` queued cells. After each
    round a policy whose curve crossed the budget drops its queued cells
    and its curve is cut at the crossing: the crossing is bracketed, and
    deeper overload points only burn wall-clock (the death spiral makes
    them disproportionately expensive to simulate). A round spans
    policies, so workers stay busy, and the rows do not depend on
    ``jobs``; at ``jobs=1`` each round is the next cell of the serial
    ladder.
    """
    base = ExperimentConfig(
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
    )
    curves: dict[str, list[tuple[int, float]]] = {policy: [] for policy in policies}

    def crossed(policy: str) -> bool:
        curve = curves[policy]
        return bool(curve) and curve[-1][1] > tick_budget_ms

    batch = max(1, jobs)
    queued = [(policy, bots) for policy in policies for bots in bot_counts]
    while queued:
        points = {
            (policy, bots): dict(
                name=f"e2-{policy}-{bots}",
                policy=policy,
                bots=bots,
            )
            for policy, bots in queued[:batch]
        }
        for (policy, bots), result in _sweep(base, points, jobs, cache_dir).items():
            if not crossed(policy):
                curves[policy].append((bots, result.tick_duration.p95))
        queued = [(policy, bots) for policy, bots in queued[batch:] if not crossed(policy)]
    capacities = {policy: _capacity_at(curves[policy], tick_budget_ms) for policy in policies}

    rows = []
    for policy in policies:
        rows.append({"policy": policy, "capacity": capacities[policy], "curve": curves[policy]})
    baseline = capacities.get(policies[0], 0.0)
    gain = (
        100.0 * (capacities[policies[-1]] / baseline - 1.0) if baseline else 0.0
    )
    table = _table(
        [
            {"policy": policy, "capacity (players @ p95 tick <= 50 ms)": capacities[policy]}
            for policy in policies
        ],
        f"E2 player capacity (gain of {policies[-1]} over {policies[0]}: {gain:.0f}%)",
    )
    return {
        "rows": rows,
        "curves": curves,
        "capacities": capacities,
        "capacity_gain_percent": gain,
        "table": table,
    }


def _capacity_at(curve: list[tuple[int, float]], budget_ms: float) -> float:
    """Largest (interpolated) player count with p95 tick <= budget."""
    capacity = 0.0
    previous: tuple[int, float] | None = None
    for bots, p95 in curve:
        if p95 <= budget_ms:
            capacity = float(bots)
            previous = (bots, p95)
            continue
        if previous is not None:
            prev_bots, prev_p95 = previous
            if p95 > prev_p95:
                fraction = (budget_ms - prev_p95) / (p95 - prev_p95)
                capacity = prev_bots + fraction * (bots - prev_bots)
        break
    return capacity


# ----------------------------------------------------------------------
# E3 — inconsistency observed by clients
# ----------------------------------------------------------------------


def inconsistency_by_policy(
    bots: int = 100,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 10_000.0,
    seed: int = 42,
    policies: tuple[str, ...] = ("zero", "fixed", "aoi", "distance", "adaptive", "infinite"),
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E3: distribution of client-observed positional error & staleness.

    Bounded policies must show bounded error; the AOI strawman must show
    unbounded error outside the interest radius.
    """
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
    )
    points = {
        policy: dict(name=f"e3-{policy}", policy=policy)
        for policy in policies
    }
    results = _sweep(base, points, jobs, cache_dir)
    rows = [
        {
            "policy": policy,
            "err mean": result.positional_error_mean,
            "err p95": result.positional_error_p95,
            "err p99": result.positional_error_p99,
            "err max": result.positional_error_max,
            "stale p50 ms": result.staleness_p50_ms,
            "stale p99 ms": result.staleness_p99_ms,
        }
        for policy, result in results.items()
    ]
    table = _table(rows, f"E3 client-observed inconsistency ({bots} bots)")
    return {"rows": rows, "table": table, "results": results}


# ----------------------------------------------------------------------
# E4 — latency (abstract claim: no added game latency)
# ----------------------------------------------------------------------


def latency_by_policy(
    bots: int = 60,
    duration_ms: float = 20_000.0,
    warmup_ms: float = 5_000.0,
    seed: int = 42,
    policies: tuple[str, ...] = ("vanilla", "zero", "adaptive"),
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E4: per-packet network latency CDF plus middleware queue delay.

    Dyconits must leave network latency untouched (same CDF as vanilla)
    and keep queue delay within the staleness bounds the policy set.
    """
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
        synchronous_delivery=False,
        record_latencies=True,
    )
    points = {
        policy: dict(name=f"e4-{policy}", policy=policy)
        for policy in policies
    }
    results = _sweep(base, points, jobs, cache_dir)
    rows = [
        {
            "policy": policy,
            "net p50 ms": result.packet_latency.p50,
            "net p95 ms": result.packet_latency.p95,
            "net p99 ms": result.packet_latency.p99,
            "queue p50 ms": result.update_queue_delay_p50_ms,
            "queue p99 ms": result.update_queue_delay_p99_ms,
        }
        for policy, result in results.items()
    ]
    table = _table(rows, f"E4 latency ({bots} bots)")
    return {"rows": rows, "table": table, "results": results}


# ----------------------------------------------------------------------
# E6 — dynamic policy over time (player burst)
# ----------------------------------------------------------------------


def dynamics_timeline(
    base_bots: int = 60,
    burst_bots: int = 120,
    duration_ms: float = 60_000.0,
    burst_at_ms: float = 20_000.0,
    burst_end_ms: float = 40_000.0,
    seed: int = 42,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E6: adaptive policy reacting to a player burst.

    The looseness factor must rise during the burst (shedding load) and
    fall back once the burst leaves (reclaiming consistency).
    """
    config = ExperimentConfig(
        name="e6-dynamics",
        policy="adaptive",
        bots=base_bots,
        duration_ms=duration_ms,
        warmup_ms=min(10_000.0, burst_at_ms / 2),
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
    )
    hooks = [
        (burst_at_ms, lambda server, workload: workload.add_bots(burst_bots)),
        (burst_end_ms, lambda server, workload: workload.remove_bots(burst_bots)),
    ]
    result = run_experiment(config, hooks=hooks)

    def window_mean(timeline: list[tuple[float, float]], start: float, end: float) -> float:
        values = [v for t, v in timeline if start <= t < end]
        return sum(values) / len(values) if values else 0.0

    factor_before = window_mean(result.factor_timeline, 0, burst_at_ms)
    factor_during = window_mean(result.factor_timeline, burst_at_ms + 5_000, burst_end_ms)
    factor_after = window_mean(result.factor_timeline, burst_end_ms + 10_000, duration_ms)
    table = render_table(
        ["phase", "mean looseness factor", "mean tick ms", "mean kB/s"],
        [
            ["before burst", factor_before,
             window_mean(result.tick_timeline, 0, burst_at_ms),
             window_mean(result.bandwidth_timeline, 0, burst_at_ms) / 1e3],
            ["during burst", factor_during,
             window_mean(result.tick_timeline, burst_at_ms + 5_000, burst_end_ms),
             window_mean(result.bandwidth_timeline, burst_at_ms + 5_000, burst_end_ms) / 1e3],
            ["after burst", factor_after,
             window_mean(result.tick_timeline, burst_end_ms + 10_000, duration_ms),
             window_mean(result.bandwidth_timeline, burst_end_ms + 10_000, duration_ms) / 1e3],
        ],
        title="E6 adaptive policy dynamics under a player burst",
    )
    return {
        "result": result,
        "factor_before": factor_before,
        "factor_during": factor_during,
        "factor_after": factor_after,
        "table": table,
    }


# ----------------------------------------------------------------------
# E7 — policy comparison summary table
# ----------------------------------------------------------------------


def policy_summary_table(
    bots: int = 100,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 10_000.0,
    seed: int = 42,
    policies: tuple[str, ...] = E7_POLICIES,
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E7: one row per policy across every headline metric."""
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
    )
    points = {
        policy: dict(name=f"e7-{policy}", policy=policy)
        for policy in policies
    }
    results = _sweep(base, points, jobs, cache_dir)
    rows = [result.as_row() for result in results.values()]
    table = _table(rows, f"E7 policy summary ({bots} bots)")
    return {"rows": rows, "table": table}


# ----------------------------------------------------------------------
# E8 — ablations
# ----------------------------------------------------------------------


def ablation_merging(
    bots: int = 100,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 10_000.0,
    seed: int = 42,
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E8(a): flush-time merging on vs off under the distance policy."""
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
        policy="distance",
    )
    points = {
        merging: dict(name=f"e8a-merge-{merging}", merging_enabled=merging)
        for merging in (True, False)
    }
    results = _sweep(base, points, jobs, cache_dir)
    rows = [
        {
            "merging": "on" if merging else "off",
            "kB/s": result.steady_bytes_per_second / 1e3,
            "pkts": result.packets_total,
            "merge %": 100.0 * result.dyconit_stats.get("merge_ratio", 0.0),
        }
        for merging, result in results.items()
    ]
    table = _table(rows, "E8(a) update merging ablation (distance policy)")
    return {"rows": rows, "table": table}


def ablation_granularity(
    bots: int = 100,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 10_000.0,
    seed: int = 42,
    partitioners: tuple[str, ...] = ("chunk", "region:2", "region:4", "global"),
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E8(b): dyconit granularity sweep under the distance policy."""
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
        policy="distance",
    )
    points = {
        partitioner: dict(name=f"e8b-{partitioner}", partitioner=partitioner)
        for partitioner in partitioners
    }
    results = _sweep(base, points, jobs, cache_dir)
    rows = [
        {
            "granularity": partitioner,
            "kB/s": result.steady_bytes_per_second / 1e3,
            "err p99": result.positional_error_p99,
            "dyconits": result.dyconit_stats.get("dyconits_created", 0),
            "p95 tick ms": result.tick_duration.p95,
        }
        for partitioner, result in results.items()
    ]
    table = _table(rows, "E8(b) dyconit granularity ablation")
    return {"rows": rows, "table": table}


def ablation_policy_period(
    bots: int = 100,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 10_000.0,
    seed: int = 42,
    periods_ms: tuple[float, ...] = (250.0, 500.0, 1000.0, 2000.0, 4000.0),
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E8(c): adaptive-policy evaluation period sweep."""
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
        policy="adaptive",
    )
    points = {
        period: dict(
            name=f"e8c-{period:.0f}ms",
            policy_kwargs={"evaluation_period_ms": period},
        )
        for period in periods_ms
    }
    results = _sweep(base, points, jobs, cache_dir)
    rows = [
        {
            "period ms": period,
            "kB/s": result.steady_bytes_per_second / 1e3,
            "p95 tick ms": result.tick_duration.p95,
            "policy evals": result.dyconit_stats.get("policy_evaluations", 0),
            "err p99": result.positional_error_p99,
        }
        for period, result in results.items()
    ]
    table = _table(rows, "E8(c) policy evaluation period ablation (adaptive)")
    return {"rows": rows, "table": table}


# ----------------------------------------------------------------------
# E9 — resilience under network faults and session churn
# ----------------------------------------------------------------------


def make_fault_plan(loss_rate: float) -> FaultPlan:
    """The standard E9 degraded-link plan at a given loss rate.

    Zero loss returns a *null* plan (fault layer installed, injecting
    nothing — the differential baseline). Non-zero rates add a bursty
    component (Gilbert–Elliott) and occasional latency spikes on top of
    the independent loss, modelling the congested/wireless links the
    paper's real-network numbers implicitly include.
    """
    if loss_rate == 0.0:
        return FaultPlan()
    return FaultPlan(
        loss_rate=loss_rate,
        burst_loss_rate=0.5,
        p_good_to_bad=loss_rate / 2.0,
        p_bad_to_good=0.25,
        spike_probability=0.02,
        spike_ms=150.0,
    )


def fault_churn_sweep(
    bots: int = 60,
    duration_ms: float = 20_000.0,
    warmup_ms: float = 8_000.0,
    seed: int = 42,
    loss_rates: tuple[float, ...] = (0.0, 0.01, 0.05),
    policies: tuple[str, ...] = ("vanilla", "adaptive"),
    churn: bool = True,
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
) -> dict:
    """E9: loss x churn sweep across direct vs dyconit modes.

    For each (policy, loss rate) point the same seeded workload runs with
    the fault layer installed and (optionally) session churn enabled;
    rows report egress bandwidth, delivered-update staleness, tick-rate
    degradation, fault-layer drops, and reconnects. The dyconit modes
    must keep their bandwidth advantage under faults, and faulty runs at
    one seed are bit-identical across repetitions (see the determinism
    tests).
    """
    # Churn timing scales with the run so short smoke runs still see
    # full crash->rejoin cycles inside the window.
    churn_spec = (
        ChurnSpec(
            interval_ms=min(1_500.0, duration_ms / 8.0),
            rejoin_delay_ms=min(2_500.0, duration_ms / 6.0),
            start_after_ms=min(warmup_ms / 2.0, 5_000.0),
        )
        if churn
        else None
    )
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
        churn=churn_spec,
    )
    points = {
        (policy, loss): dict(
            name=f"e9-{policy}-loss{loss:g}",
            policy=policy,
            faults=make_fault_plan(loss),
        )
        for policy in policies
        for loss in loss_rates
    }
    results: dict[tuple[str, float], ExperimentResult] = _sweep(
        base, points, jobs, cache_dir
    )
    rows = []
    for (policy, loss), result in results.items():
        sent = max(1, result.packets_total)
        rows.append(
            {
                "policy": policy,
                "loss %": 100.0 * loss,
                "kB/s": result.steady_bytes_per_second / 1e3,
                "dropped": result.packets_dropped,
                "drop %": 100.0 * result.packets_dropped / sent,
                "reconnects": result.reconnects,
                "stale p99 ms": result.staleness_p99_ms,
                "tick Hz": result.effective_tick_rate_hz,
            }
        )
    table = _table(
        rows,
        f"E9 faults & churn ({bots} bots, churn {'on' if churn else 'off'})",
    )
    return {"rows": rows, "table": table, "results": results}


# ----------------------------------------------------------------------
# E11 — sharded world: shard-count scaling (S16) + parallel ticks (S18)
# ----------------------------------------------------------------------


def tick_variability(result: ExperimentResult, warmup_ms: float) -> dict:
    """Meterstick-style tick-time variability over the steady window.

    The coefficient of variation (std/mean) and the p99/p50 ratio of the
    per-tick times — the two variability metrics Meterstick argues are
    the honest way to report game-loop performance (a mean hides the
    stalls players actually feel). Computed from the cluster's critical-
    path tick timeline (slowest shard per tick)."""
    ticks = [value for time, value in result.tick_timeline if time >= warmup_ms]
    if not ticks:
        return {"cov": 0.0, "p99_over_p50": 0.0}
    mean = sum(ticks) / len(ticks)
    variance = sum((t - mean) ** 2 for t in ticks) / len(ticks)
    p50 = percentile(ticks, 50)
    p99 = percentile(ticks, 99)
    return {
        "cov": math.sqrt(variance) / mean if mean > 0 else 0.0,
        "p99_over_p50": p99 / p50 if p50 > 0 else 0.0,
    }


def shard_scaling(
    bots: int = 24,
    duration_ms: float = 20_000.0,
    warmup_ms: float = 8_000.0,
    seed: int = 42,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    movement: str = "gathering",
    policy: str = "adaptive",
    jobs: int = 1,
    cache_dir=None,
    audit_every_n_ticks: int = 0,
    compare_parallel: bool = True,
) -> dict:
    """E11: the same workload on 1, 2, and 4 federated shards.

    The gathering workload parks the whole fleet on a shard border (the
    world origin is always a strip boundary), which is the worst case
    for federation: maximal cross-shard ghost traffic and continuous
    handoff pressure. Rows report per-shard tick health, session
    handoffs, and the inter-shard dyconit bandwidth next to the client
    bandwidth it buys down per shard.

    With ``compare_parallel`` (S18), each multi-shard cell also runs
    under :class:`~repro.cluster.runner.ParallelShardRunner` and the row
    gains the serial-vs-parallel comparison: Meterstick tick-variability
    (CoV, p99/p50) for both runtimes, and the determinism check —
    traffic totals and handoff counts must be identical, because the
    parallel runtime only changes wall-clock behaviour, never bytes.
    Tick times come from the deterministic cost model, so the parallel
    variability columns equal the serial ones exactly unless the
    runtime changed the per-tick work — equality is itself the signal.
    """
    base = ExperimentConfig(
        bots=bots,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
        movement=movement,
        policy=policy,
    )
    points: dict = {
        shards: dict(name=f"e11-shards{shards}", shards=shards)
        for shards in shard_counts
    }
    if compare_parallel:
        for shards in shard_counts:
            if shards >= 2:
                points[("par", shards)] = dict(
                    points[shards],
                    name=f"e11-shards{shards}-par",
                    parallel_ticks=True,
                )
    all_results = _sweep(base, points, jobs, cache_dir)
    results = {shards: all_results[shards] for shards in shard_counts}
    parallel_results = {
        shards: all_results[("par", shards)]
        for shards in shard_counts
        if ("par", shards) in all_results
    }
    rows = []
    for shards, result in results.items():
        worst_shard_p95 = (
            max(result.shard_tick_p95_ms)
            if result.shard_tick_p95_ms
            else result.tick_duration.p95
        )
        variability = tick_variability(result, warmup_ms)
        row = {
            "shards": shards,
            "kB/s": result.steady_bytes_per_second / 1e3,
            "p95 tick ms": result.tick_duration.p95,
            "worst shard p95 ms": worst_shard_p95,
            "tick CoV": variability["cov"],
            "p99/p50": variability["p99_over_p50"],
            "handoffs": result.handoffs,
            "transfers": result.entity_transfers,
            "intershard kB/s": result.intershard_bytes_per_second / 1e3,
            "err p99": result.positional_error_p99,
            "par CoV": "",
            "par p99/p50": "",
            "par identical": "",
        }
        if shards in parallel_results:
            par = parallel_results[shards]
            par_variability = tick_variability(par, warmup_ms)
            row["par CoV"] = par_variability["cov"]
            row["par p99/p50"] = par_variability["p99_over_p50"]
            row["par identical"] = (
                "yes"
                if (
                    par.bytes_total == result.bytes_total
                    and par.packets_total == result.packets_total
                    and par.handoffs == result.handoffs
                    and par.intershard_bytes == result.intershard_bytes
                )
                else "NO"
            )
        rows.append(row)
    columns = None
    if not compare_parallel:
        columns = [column for column in rows[0] if not column.startswith("par ")]
    table = _table(
        rows,
        f"E11 shard-count scaling ({bots} bots, {movement} workload, {policy} policy)",
        columns=columns,
    )
    return {
        "rows": rows,
        "table": table,
        "results": results,
        "parallel_results": parallel_results,
    }
