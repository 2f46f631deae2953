"""E5 — middleware overhead microbenchmarks.

Regenerates the middleware-overhead table: the real (wall-clock) cost of
the commit path, the flush path, bound re-derivation, and the memory
footprint per dyconit. These are the only benchmarks in the suite that
measure *wall-clock* performance of the implementation itself (everything
else measures simulated quantities).

Under ``--benchmark-disable`` each body runs once, untimed, as a smoke
test: the rows then report and assert nothing about time.
"""

import math
import sys

import pytest

from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.subscription import Subscriber
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3


def build_system(subscribers: int, bounds: Bounds, telemetry=None) -> DyconitSystem:
    system = DyconitSystem(
        FixedBoundsPolicy(bounds), time_source=lambda: 0.0, telemetry=telemetry
    )
    for subscriber_id in range(subscribers):
        subscriber = Subscriber(subscriber_id=subscriber_id, deliver=lambda segments: None)
        system.subscribe(("chunk", 0, 0), subscriber)
    return system


def mean_s(benchmark) -> float | None:
    """Mean seconds per round, or ``None`` when benchmarking is off."""
    return None if benchmark.stats is None else benchmark.stats.stats.mean


def make_moves(count: int):
    return [
        EntityMoveEvent(
            time=float(index),
            entity_id=index % 16 + 1,
            old_position=Vec3(0, 0, 0),
            new_position=Vec3(1, 0, 0),
        )
        for index in range(count)
    ]


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_commit_throughput_queueing(benchmark):
    """Commit path with queueing (infinite bounds): enqueue + merge only."""
    system = build_system(subscribers=50, bounds=Bounds.INFINITE)
    moves = make_moves(1000)

    def commit_batch():
        for move in moves:
            system.commit_to(("chunk", 0, 0), move)

    benchmark(commit_batch)
    mean = mean_s(benchmark)
    if mean is not None:
        # 1000 commits x 50 subscribers per round.
        per_enqueue_us = mean * 1e6 / (1000 * 50)
        print(f"\ncommit+enqueue cost: {per_enqueue_us:.2f} us per (update, subscriber)")


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_commit_throughput_flushing(benchmark):
    """Commit path under zero bounds: every commit flushes immediately
    (the vanilla-equivalent worst case for middleware work)."""
    system = build_system(subscribers=50, bounds=Bounds.ZERO)
    moves = make_moves(1000)

    def commit_batch():
        for move in moves:
            system.commit_to(("chunk", 0, 0), move)

    benchmark(commit_batch)


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_bound_rederivation(benchmark):
    """``set_bounds`` sweep across 2,000 subscriptions (the gateway's
    bounds op, one subscription at a time; a chunk crossing re-derives
    its bounds as one column instead, S33)."""
    system = build_system(subscribers=2000, bounds=Bounds(10.0, 1000.0))
    bounds_a = Bounds(10.0, 1000.0)
    bounds_b = Bounds(20.0, 2000.0)
    toggle = [False]

    def sweep():
        toggle[0] = not toggle[0]
        bounds = bounds_a if toggle[0] else bounds_b
        for subscriber_id in range(2000):
            system.set_bounds(("chunk", 0, 0), subscriber_id, bounds)

    benchmark(sweep)


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_staleness_tick_scales_with_due_flushes_only(benchmark):
    """tick() must be cheap when nothing is due, regardless of how many
    subscriptions exist — the 'thin middleware' property."""
    system = build_system(subscribers=5000, bounds=Bounds(1e9, 1e9))
    for move in make_moves(100):
        system.commit_to(("chunk", 0, 0), move)

    benchmark(system.tick)
    mean = mean_s(benchmark)
    if mean is not None:
        assert mean < 0.001  # < 1 ms with 5k subscriptions


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_telemetry_overhead_disabled(benchmark):
    """Commit throughput with the (default) disabled telemetry hub.

    The instrumented commit path must cost one attribute check when
    telemetry is off — this row guards the < 3% regression budget
    against the uninstrumented seed.
    """
    system = build_system(subscribers=50, bounds=Bounds.INFINITE)
    moves = make_moves(1000)

    def commit_batch():
        for move in moves:
            system.commit_to(("chunk", 0, 0), move)

    benchmark(commit_batch)
    mean = mean_s(benchmark)
    if mean is not None:
        per_enqueue_us = mean * 1e6 / (1000 * 50)
        print(f"\ntelemetry off: {per_enqueue_us:.3f} us per (update, subscriber)")


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_telemetry_overhead_enabled(benchmark):
    """Commit throughput with a live hub: counters on every commit/enqueue.

    Prints the enabled-vs-nothing cost so the perf trajectory records
    what switching observability on costs on the hottest path.
    """
    from repro.telemetry import Telemetry

    telemetry = Telemetry(enabled=True)
    system = build_system(subscribers=50, bounds=Bounds.INFINITE, telemetry=telemetry)
    moves = make_moves(1000)

    def commit_batch():
        for move in moves:
            system.commit_to(("chunk", 0, 0), move)

    benchmark(commit_batch)
    mean = mean_s(benchmark)
    if mean is not None:
        per_enqueue_us = mean * 1e6 / (1000 * 50)
        print(f"\ntelemetry on: {per_enqueue_us:.3f} us per (update, subscriber)")
    assert telemetry.counter("dyconit_commits_total").value > 0


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_audit_overhead_off(benchmark):
    """Tick + commit mix with checked mode off (the production default).

    The audit hook must cost one attribute check per tick when disabled;
    this row is the baseline for the audit-on row below.
    """
    system = build_system(subscribers=50, bounds=Bounds.INFINITE)
    moves = make_moves(200)

    def round_trip():
        for move in moves:
            system.commit_to(("chunk", 0, 0), move)
        system.tick()

    benchmark(round_trip)
    mean = mean_s(benchmark)
    if mean is not None:
        print(f"\naudit off: {mean * 1e6:.1f} us per 200-commit round")


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_audit_overhead_on(benchmark):
    """Same mix plus a full invariant audit per round (checked mode).

    Auditing walks every structure pair (aliases, membership registry,
    queues, ``_due_at`` deadlines), so its cost scales with live state; this row
    records what ``--audit 1`` costs so users can pick a period.
    """
    from repro.core.invariants import InvariantAuditor

    system = build_system(subscribers=50, bounds=Bounds.INFINITE)
    auditor = InvariantAuditor()
    moves = make_moves(200)

    def round_trip():
        for move in moves:
            system.commit_to(("chunk", 0, 0), move)
        system.tick()
        violations = auditor.check(system)
        assert not violations

    benchmark(round_trip)
    mean = mean_s(benchmark)
    if mean is not None:
        print(f"\naudit on: {mean * 1e6:.1f} us per 200-commit round + audit")


def retune_crowd(clients: int = 40, view_distance: int = 5, state_store: str = "memory"):
    """A bench-shaped crowd: ``clients`` avatars spread over a 48-block disc,
    each subscribed to its (2 * view_distance + 1)-square view plus the
    global dyconit under ``AdaptiveBoundsPolicy``, the views overlapping
    as ``adaptive-hotspot``'s do (40 clients: ~4 900 pairs over ~300
    dyconits). ``positions`` maps each client to its avatar's position,
    which a row may move. Returns ``(system, policy, clock, chunk ids,
    positions)``."""
    import random

    from repro.core.partition import ChunkPartitioner
    from repro.policies.adaptive import AdaptiveBoundsPolicy

    policy = AdaptiveBoundsPolicy()
    clock = {"now": 0.0}
    system = DyconitSystem(
        policy,
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        state_store=state_store,
    )
    rng = random.Random(40)
    positions = {}
    for subscriber_id in range(clients):
        angle = rng.uniform(0.0, 6.283185307179586)
        radius = 48.0 * rng.random() ** 0.5
        position = Vec3(radius * math.cos(angle), 64.0, radius * math.sin(angle))
        positions[subscriber_id] = position
        subscriber = Subscriber(
            subscriber_id=subscriber_id,
            deliver=lambda segments: None,
            position_provider=lambda subscriber_id=subscriber_id: positions[subscriber_id],
        )
        view = list(
            system.partitioner.dyconits_for_view(position.to_chunk_pos(), view_distance)
        )
        for dyconit_id, bounds in zip(view, system.policy_bounds(view, subscriber)):
            system.subscribe(dyconit_id, subscriber, bounds=bounds)
    chunks = [dyconit_id for dyconit_id in system._dyconits if dyconit_id[0] == "chunk"]
    return system, policy, clock, chunks, positions


def refill(system, clock, chunks) -> None:
    """Queue a move on every chunk dyconit and advance the clock 100 ms,
    so the next retune checks pending queues and drains what it trips."""
    clock["now"] += 100.0
    for index, dyconit_id in enumerate(chunks):
        system.commit_to(
            dyconit_id,
            EntityMoveEvent(clock["now"], index % 16 + 1, Vec3(0, 0, 0), Vec3(1, 0, 0)),
        )


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_retune_sweep(benchmark):
    """One ``retune_clients`` over the crowd above — what the adaptive
    servo runs each second its factor moves (S23, S36, S37): one bounds
    derivation over the pair table, one column install per dyconit and
    one trip check over every pending queue. Before each sweep, untimed,
    every chunk dyconit gets a move queued and the clock advances 100 ms,
    so each sweep checks pending queues and drains the ones its factor
    trips."""
    system, policy, clock, chunks, __ = retune_crowd()
    pairs = sum(dyconit.subscriber_count for dyconit in system.dyconits())
    factors = iter([0.5, 1.0] * 1000)

    def setup():
        refill(system, clock, chunks)
        policy.factor = next(factors)

    benchmark.pedantic(
        system.retune_clients, args=(policy.bounds_columns,), setup=setup, rounds=20
    )
    assert 4000 <= pairs <= 6000 and system.stats.bound_checks > pairs
    mean = mean_s(benchmark)
    if mean is not None:
        print(
            f"\nretune sweep: {mean * 1e3:.2f} ms for {pairs} pairs over "
            f"{system.dyconit_count} dyconits"
        )


@pytest.mark.benchmark(group="e5-overhead")
@pytest.mark.parametrize("state_store", ["memory", "sqlite"])
def test_e5_chunk_crossing(benchmark, state_store):
    """One ``retune_subscriber`` (S33, S37): a client of the crowd above
    steps across a chunk border and back, and each step re-derives the
    bounds of its whole membership — its 121-chunk view plus the global
    dyconit — as one column and installs and checks each on its
    dyconit. Before each step, untimed, every chunk dyconit gets a move
    queued, so the step checks pending queues and drains what it trips."""
    system, policy, clock, chunks, positions = retune_crowd(state_store=state_store)
    subscriber = system.subscriber(0)
    home = positions[0]
    steps = iter([Vec3(home.x + 16.0, home.y, home.z), home] * 1000)
    membership = len(system.subscription_ids_of(0))

    def setup():
        refill(system, clock, chunks)
        positions[0] = next(steps)

    checks = system.stats.bound_checks
    benchmark.pedantic(
        system.notify_subscriber_moved, args=(0,), setup=setup, rounds=20
    )
    assert membership == 122 and system.stats.bound_checks > checks
    assert system.subscriber(0) is subscriber
    mean = mean_s(benchmark)
    if mean is not None:
        print(f"\nchunk crossing ({state_store}): {mean * 1e6:.0f} us over {membership} dyconits")
    system.close()


@pytest.mark.benchmark(group="e5-overhead")
def test_e5_view_change(benchmark):
    """One edge view change (S35): the bounds of the 11 chunks a step
    brings into a client's view as one ``policy_bounds`` call, then 11
    ``subscribe`` with them and, to leave the crowd as it was, 11
    ``unsubscribe`` — what a straight chunk crossing costs the interest
    refresh besides the crossing itself."""
    system, policy, clock, chunks, positions = retune_crowd()
    subscriber = system.subscriber(0)
    home = positions[0].to_chunk_pos()
    row = [("chunk", home.cx + 6, home.cz + dz) for dz in range(-5, 6)]
    assert not set(row) & set(system.subscription_ids_of(0))

    def view_change():
        for dyconit_id, bounds in zip(row, system.policy_bounds(row, subscriber)):
            system.subscribe(dyconit_id, subscriber, bounds=bounds)
        for dyconit_id in row:
            system.unsubscribe(dyconit_id, 0)

    subscriptions = system.stats.subscriptions
    benchmark(view_change)
    assert system.stats.subscriptions > subscriptions
    assert not set(row) & set(system.subscription_ids_of(0))
    mean = mean_s(benchmark)
    if mean is not None:
        print(f"\nview change: {mean * 1e6:.0f} us for 11 ids in and out")


def test_e5_memory_per_dyconit():
    """Rough memory footprint of an idle dyconit + subscription state, in
    the representation the product allocates (the memory store's)."""
    from repro.backends import InMemoryStateStore

    dyconit = InMemoryStateStore().create_dyconit_state(("chunk", 0, 0), merging=True)
    subscriber = Subscriber(subscriber_id=1, deliver=lambda segments: None)
    state = dyconit.subscribe(subscriber)
    parts = [getattr(dyconit, name) for name in type(dyconit).__slots__]
    footprint = (
        sys.getsizeof(dyconit)
        # the columns' buffers once (the [:n] views share them) ...
        + sum(part.nbytes for part in parts if getattr(part, "base", 0) is None)
        # ... and every other per-dyconit container and scalar
        + sum(sys.getsizeof(part) for part in parts if not hasattr(part, "nbytes"))
        + sys.getsizeof(state)
        + sys.getsizeof(state.pending)
    )
    print(f"\napprox. footprint: dyconit + 1 subscription ~ {footprint} bytes")
    assert footprint < 4096


def test_e5_memory_per_chunk():
    """Retained bytes and generation time per generated chunk: what each
    chunk a player walks past costs the server (a chunk is its generated
    base plus edits, with no block array). Measured one ``get_chunk`` at a
    time and through ``World.get_chunks`` in 11-chunk rows — the batch a
    view distance of 5 loads per crossing (S33): a batched chunk must own
    its bytes, never hold a view into the batch's arrays."""
    import time
    import tracemalloc

    from repro.world.geometry import ChunkPos
    from repro.world.world import World

    count = 1000
    positions = [ChunkPos(i % 40, i // 40) for i in range(count)]
    rows = [positions[start : start + 11] for start in range(0, count, 11)]

    def load_single(world):
        for pos in positions:
            world.get_chunk(pos)

    def load_rows(world):
        for batch in rows:
            world.get_chunks(batch)

    for name, load in (("single", load_single), ("row-batched", load_rows)):
        world = World(seed=1)
        world.get_chunk(ChunkPos(-1, -1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            load(world)
            retained = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        world = World(seed=1)
        started = time.perf_counter()
        load(world)
        generate_us = (time.perf_counter() - started) * 1e6 / count
        print(
            f"\nper chunk ({name}): {retained:.0f} bytes retained, "
            f"{generate_us:.0f} us to generate"
        )
        assert retained <= 2048, name
