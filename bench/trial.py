"""One trial: build, join and warm up (set-up), then time steady windows.

Runs inside a fresh subprocess (see ``run.py``). A *window* is 50 ms of
simulated time — one nominal server tick with everything that rides on it:
bot actions, the tick, delivery and bot-side apply. Each window is one
``sim.run_until`` call timed with ``perf_counter``; the trial keeps timing
windows until its share of ``--seconds`` is spent.

Between windows, outside the timed region, the trial reads the process
clocks, runs the speed kernel (``speed.py``) before every fifth window and,
every tenth window, samples every bot's replica against the authoritative
world. Those samples give the two consistency metrics; the workload's own
in-simulation sampler is switched off so that the windows hold the
service's work only.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import operator
import os
import resource
import time
import traceback
from bisect import bisect_right

from combine import TICK_MS
from speed import PROBE_EVERY, SpeedProbe, window_factors
from spans import SPAN_NAMES, TOTAL_SPANS, Tracer
from workloads import BY_NAME, build

#: Simulated time given to joins (the last of 64 bots joins at 0.64 s) and to
#: settling before the steady windows start.
WARMUP_MS = 3000.0

#: The consistency samples are taken before every this-many-th window.
SAMPLE_EVERY = 10

#: A trial times at least this many windows however slow the machine is.
MIN_WINDOWS = 20

#: Per-layer call counts are taken over this many windows from the start of
#: the steady phase, so that they repeat exactly per seed on any machine.
COUNT_WINDOWS = 60

#: A replica is *fresh* if it is exact or was updated less than this ago
#: (the staleness bound DistanceBasedPolicy gives the chat dyconit).
FRESH_MS = 250.0

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 1e6


def _servers(server) -> list:
    """The shard servers (or worker handles) of a cluster, else the server."""
    return list(server.shards) if hasattr(server, "shards") else [server]


def _worker_cpu_ms(pids: list[int]) -> float:
    """On-CPU time of the shard workers, from the scheduler's ns counter."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/schedstat") as stat:
            total += int(stat.read().split()[0])
    return total / 1e6


def _rss_mb(pids: list[int]) -> float:
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm") as statm:
            total += int(statm.read().split()[1])
    return total * _PAGE_MB


def state_digest(server, fleet) -> str:
    """sha256 over the authoritative entity positions, every bot's replica
    and packet count, and the per-kind packet and byte totals."""
    digest = hashlib.sha256()
    entities = sorted(
        (entity.entity_id, entity.position.x, entity.position.y, entity.position.z)
        for entity in server.world.entities()
    )
    digest.update(repr(entities).encode())
    for bot in fleet.bots:
        replica = sorted(
            (entity_id, position.x, position.y, position.z)
            for entity_id, position in bot.perceived.entity_positions.items()
        )
        digest.update(repr((bot.name, bot.packets_received, replica)).encode())
    for shard in _servers(server):
        transport = shard.transport
        digest.update(repr(sorted(transport.packets_by_kind().items())).encode())
        digest.update(repr(sorted(transport.bytes_by_kind().items())).encode())
    return digest.hexdigest()


def _sample(fleet, now: float, window: int, errors: list, ages: list) -> list[int]:
    """``[window, replicas, within one block, fresh]`` over the whole fleet."""
    replicas = within = stale = 0
    for bot in fleet.bots:
        bot_errors = bot.positional_errors()
        bot_ages = bot.replica_staleness_ms(now)
        replicas += len(bot_errors)
        within += sum(1 for error in bot_errors if error <= 1.0)
        stale += sum(1 for age in bot_ages if age >= FRESH_MS)
        errors.extend(bot_errors)
        ages.extend(bot_ages)
    return [window, replicas, within, replicas - stale]


_DYCONIT_COUNTERS = (
    "commits", "updates_enqueued", "updates_merged", "updates_delivered",
    "bound_checks", "flushes",
)


def _counts(server, fleet) -> dict[str, int]:
    """The program's own cumulative counters, read from outside: packets
    the bots received, bus traffic, handoffs and — where the program can
    say — the summed ``DyconitSystem.stats``. Direct mode has no dyconit
    system, and shard workers only ship their stats at ``finalize``; the
    dyconit counters are then absent."""
    bus = getattr(server, "bus", None)
    counts = {
        "packets": sum(bot.packets_received for bot in fleet.bots),
        "bus_messages": bus.total_messages if bus is not None else 0,
        "bus_bytes": bus.total_bytes if bus is not None else 0,
        "handoffs": getattr(server, "handoffs", 0),
    }
    all_stats = [
        shard.dyconits.stats if shard.dyconits is not None else None
        for shard in _servers(server)
    ]
    if None not in all_stats:
        for field in _DYCONIT_COUNTERS:
            counts[field] = sum(getattr(stats, field) for stats in all_stats)
    return counts


def _bytes_at(server, boundaries: list[float]) -> list[int]:
    """Cumulative egress bytes at each simulated instant, from the
    ``bytes_total`` series every server records once per tick."""
    out = [0] * len(boundaries)
    for shard in _servers(server):
        series = shard.metrics.series("bytes_total")
        for index, boundary in enumerate(boundaries):
            position = bisect_right(series.times, boundary)
            if position:
                out[index] += int(series.values[position - 1])
    return out


def _p99(values: list[float]) -> float:
    return sorted(values)[int(len(values) * 0.99)] if values else 0.0


def _span_metrics(tracer: Tracer, factors: list[float]) -> dict[str, float | None]:
    layers: dict[str, float | None] = {}
    spans = tracer.per_tick(COUNT_WINDOWS, factors)
    for name in SPAN_NAMES:
        layers[f"{name}.calls_per_tick"] = spans[name]["calls"]
        layers[f"{name}.self_ms_per_tick"] = spans[name]["self_ms"]
        if name in TOTAL_SPANS:
            layers[f"{name}.total_ms_per_tick"] = spans[name]["total_ms"]
    layers["sim.events_per_tick"] = tracer.events_per_tick(COUNT_WINDOWS)
    return layers


def _core_metrics(before: dict, after: dict, ticks: float) -> dict[str, float]:
    """Rates and ratios from ``DyconitSystem.stats`` deltas (all zero in
    direct mode, where neither snapshot has the counters)."""
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in _DYCONIT_COUNTERS}
    flushes, enqueues = delta["flushes"], delta["updates_enqueued"]
    return {
        "core.commits_per_tick": delta["commits"] / ticks,
        "core.enqueues_per_tick": enqueues / ticks,
        "core.bound_checks_per_tick": delta["bound_checks"] / ticks,
        "core.flushes_per_tick": flushes / ticks,
        # Useful outcomes per attempt: flushes per bound check.
        "core.flush_hit_ratio": flushes / max(1, delta["bound_checks"]),
        "core.merge_ratio": delta["updates_merged"] / max(1, enqueues),
        "core.updates_per_flush": delta["updates_delivered"] / max(1, flushes),
    }


def _write_trace(path: str, tracer: Tracer, result: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        json.dump(
            {
                "workload": result["workload"],
                "seed": result["seed"],
                "spans": list(tracer.names),
                "missing": sorted(tracer.missing),
                "windows": [
                    {
                        "window": index,
                        "wall_ms": result["wall_ms"][index],
                        "calls": calls,
                        "total_us": [ns / 1e3 for ns in total_ns],
                        "self_us": [ns / 1e3 for ns in self_ns],
                    }
                    for index, (calls, total_ns, self_ns, __) in enumerate(tracer.windows)
                ],
                "kept": tracer.kept_windows(),
            },
            out,
        )


def run_trial(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    bots: int | None = None,
    trace_path: str | None = None,
) -> dict:
    workload = BY_NAME[workload_name]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()

    probe = SpeedProbe()
    started = time.perf_counter()
    sim, server, fleet = build(workload, seed, bots)
    sim.run_until(WARMUP_MS)
    gc.collect()
    setup_s = time.perf_counter() - started

    parallel = hasattr(server, "finalize")
    workers = [process.pid for process in multiprocessing.active_children()]
    pids = [os.getpid(), *workers]
    digest = state_digest(server, fleet)
    rss_setup_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + _rss_mb(workers)
    )
    counts_start = _counts(server, fleet)
    counts_prefix = None

    wall_ms: list[float] = []
    cpu_ms: list[float] = []
    worker_cpu_ms: list[float] = []
    rss_mb: list[float] = []
    probes: list[float] = []
    samples: list[list[int]] = []
    errors: list[float] = []
    ages: list[float] = []
    error = None
    now = WARMUP_MS
    deadline = time.perf_counter() + seconds
    try:
        while len(wall_ms) < MIN_WINDOWS or time.perf_counter() < deadline:
            window = len(wall_ms)
            if window % SAMPLE_EVERY == 0:
                samples.append(_sample(fleet, now, window, errors, ages))
            if window == COUNT_WINDOWS:
                counts_prefix = _counts(server, fleet)
            if window % PROBE_EVERY == 0:
                probes.append(probe.sample())
            rss_mb.append(_rss_mb(pids))
            now += TICK_MS
            if tracer is not None:
                tracer.begin_window()
            worker_before = _worker_cpu_ms(workers)
            cpu_before = time.process_time()
            wall_before = time.perf_counter()
            sim.run_until(now)
            wall = (time.perf_counter() - wall_before) * 1e3
            cpu = (time.process_time() - cpu_before) * 1e3
            worker_cpu = _worker_cpu_ms(workers) - worker_before
            if tracer is not None:
                tracer.end_window(wall)
            wall_ms.append(wall)
            cpu_ms.append(cpu + worker_cpu)
            worker_cpu_ms.append(worker_cpu)
    except Exception:  # the window in flight failed: report it, do not hang
        error = f"window {len(wall_ms)}:\n{traceback.format_exc()}"

    windows = len(wall_ms)
    checks = {}
    if error is None:
        checks["bots_joined"] = all(
            bot.connected and bot.entity_id is not None and bot.packets_received > 0
            for bot in fleet.bots
        )
        try:
            server.audit_now()
            checks["audit"] = True
        except Exception:
            checks["audit"] = False
            error = f"audit:\n{traceback.format_exc()}"

    if tracer is not None:
        tracer.uninstall()
    if parallel:
        server.finalize()
    counts_end = _counts(server, fleet)
    checks["packets_sent"] = (
        sum(shard.transport.total_packets() for shard in _servers(server)) > 0
    )
    boundaries = [WARMUP_MS + TICK_MS * index for index in range(windows + 1)]
    cumulative = _bytes_at(server, boundaries)
    chunks_loaded = sum(shard.world.loaded_chunk_count for shard in _servers(server))
    if not parallel:
        server.close()

    result = {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "error": error,
        "checks": checks,
        "setup_s": setup_s,
        "probes": probes,
        "state_digest": digest,
        "windows": windows,
        "wall_ms": wall_ms,
        "cpu_ms": cpu_ms,
        "rss_setup_mb": rss_setup_mb,
        "rss_mb": rss_mb,
        "bytes_start": cumulative[0],
        "bytes": cumulative[1:],
        "samples": samples,
    }
    if tracer is not None and windows:
        # Counts are taken over the same fixed prefix of windows as the
        # spans' call counts, so they repeat exactly per seed and
        # net.packets_per_tick can be held against the per-packet spans.
        counted = min(COUNT_WINDOWS, windows)
        if counts_prefix is None:
            counts_prefix = counts_end
        factors = window_factors(probes, windows)
        layers = _span_metrics(tracer, factors)
        if "commits" in counts_end and "commits" not in counts_prefix:
            # Shard workers ship their dyconit counters at finalize only:
            # their rates are over every tick since time zero.
            layers.update(_core_metrics({}, counts_end, now / TICK_MS))
        else:
            layers.update(_core_metrics(counts_start, counts_prefix, counted))
        delta = {name: counts_prefix[name] - counts_start[name] for name in counts_start}
        layers["net.packets_per_tick"] = delta["packets"] / counted
        layers["net.bytes_per_tick"] = (cumulative[counted] - cumulative[0]) / counted
        layers["cluster.bus.messages_per_tick"] = delta["bus_messages"] / counted
        layers["cluster.bus.bytes_per_tick"] = delta["bus_bytes"] / counted
        layers["cluster.handoffs"] = delta["handoffs"]
        worker_cpu = sum(map(operator.mul, worker_cpu_ms, factors))
        layers["cluster.worker_cpu_ms_per_tick"] = worker_cpu / windows
        layers["cluster.parent_cpu_ms_per_tick"] = (
            sum(map(operator.mul, cpu_ms, factors)) - worker_cpu
        ) / windows
        layers["world.chunks_loaded"] = chunks_loaded
        layers["bots.pos_error_p99"] = _p99(errors)
        layers["bots.staleness_p99_ms"] = _p99(ages)
        result["layers"] = layers
        result["span_self_ms_sum"] = sum(
            value
            for name, value in layers.items()
            if name.endswith(".self_ms_per_tick") and value is not None
        )
        if trace_path is not None:
            _write_trace(trace_path, tracer, result)
    return result
