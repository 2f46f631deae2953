"""Property-based tests (hypothesis) on core invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import Bounds
from repro.core.dyconit import SubscriptionState
from repro.core.subscription import Subscriber
from repro.metrics.collector import Histogram
from repro.metrics.summary import describe
from repro.sim.events import EventQueue
from repro.world.events import EntityMoveEvent
from repro.world.geometry import BlockPos, ChunkPos, Vec3

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
coords = st.integers(min_value=-10_000, max_value=10_000)
heights = st.integers(min_value=0, max_value=63)


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------


@given(coords, heights, coords)
def test_block_to_chunk_to_local_roundtrip(x, y, z):
    """Chunk origin + local offset reconstructs the block position."""
    pos = BlockPos(x, y, z)
    chunk = pos.to_chunk_pos()
    lx, ly, lz = pos.local()
    assert 0 <= lx < 16 and 0 <= lz < 16
    origin = chunk.block_origin()
    assert origin.x + lx == x
    assert origin.z + lz == z
    assert ly == y


@given(finite_floats, finite_floats, finite_floats)
def test_vec3_block_pos_consistent_with_chunk_pos(x, y, z):
    vec = Vec3(x, y, z)
    assert vec.to_block_pos().to_chunk_pos() == vec.to_chunk_pos()


@given(finite_floats, finite_floats, finite_floats, finite_floats, finite_floats, finite_floats)
def test_distance_symmetry_and_triangle(x1, y1, z1, x2, y2, z2):
    a, b = Vec3(x1, y1, z1), Vec3(x2, y2, z2)
    assert a.distance_to(b) == b.distance_to(a)
    origin = Vec3.zero()
    assert a.distance_to(b) <= a.distance_to(origin) + origin.distance_to(b) + 1e-6


@given(coords, coords, coords, coords)
def test_chebyshev_metric_properties(ax, az, bx, bz):
    a, b = ChunkPos(ax, az), ChunkPos(bx, bz)
    assert a.chebyshev_distance_to(b) == b.chebyshev_distance_to(a)
    assert a.chebyshev_distance_to(a) == 0
    assert a.chebyshev_distance_to(b) >= 0


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------


bounds_strategy = st.builds(
    Bounds,
    numerical=st.floats(min_value=0.0, max_value=1e9),
    staleness_ms=st.floats(min_value=0.0, max_value=1e9),
)


@given(bounds_strategy, st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=1e9))
def test_bounds_monotone_in_error_and_age(bounds, error, age):
    """If a state violates the bound, any worse state also violates it."""
    if bounds.exceeded_by(error, age):
        assert bounds.exceeded_by(error * 2 + 1, age)
        assert bounds.exceeded_by(error, age * 2 + 1)


@given(bounds_strategy, st.floats(min_value=0.0, max_value=100.0))
def test_scaling_preserves_ordering(bounds, factor):
    scaled = bounds.scaled(factor)
    assert scaled.numerical == bounds.numerical * factor
    assert scaled.staleness_ms == bounds.staleness_ms * factor


@given(bounds_strategy)
def test_infinite_bound_never_exceeded(bounds):
    assert not Bounds.INFINITE.exceeded_by(bounds.numerical, bounds.staleness_ms)


# ----------------------------------------------------------------------
# Queue / merge semantics
# ----------------------------------------------------------------------


move_strategy = st.tuples(
    st.integers(min_value=1, max_value=5),  # entity id
    st.floats(min_value=0.0, max_value=1e4),  # time
    st.floats(min_value=0.0, max_value=10.0),  # distance
)


def make_state(merging=True):
    subscriber = Subscriber(subscriber_id=1, deliver=lambda segments: None)
    state = SubscriptionState(subscriber=subscriber, bounds=Bounds.INFINITE)
    state.merging = merging
    return state


def make_move(entity_id, time, distance):
    return EntityMoveEvent(
        time=time,
        entity_id=entity_id,
        old_position=Vec3(0, 0, 0),
        new_position=Vec3(distance, 0, 0),
    )


@given(st.lists(move_strategy, max_size=50))
def test_error_equals_total_weight_regardless_of_merging(moves):
    """Accumulated error is the exact sum of committed weights, merged or
    not — the conservative-accounting invariant."""
    state = make_state()
    total = 0.0
    for entity_id, time, distance in moves:
        update = make_move(entity_id, time, distance)
        total += update.weight
        state.enqueue(update)
    assert state.accumulated_error == math.fsum(
        [m[2] for m in moves]
    ) or abs(state.accumulated_error - total) < 1e-6


@given(st.lists(move_strategy, max_size=50))
def test_pending_bounded_by_distinct_keys(moves):
    state = make_state()
    for entity_id, time, distance in moves:
        state.enqueue(make_move(entity_id, time, distance))
    distinct = len({entity_id for entity_id, __, __ in moves})
    assert len(state.pending) == distinct
    assert state.merged_count == len(moves) - distinct


@given(st.lists(move_strategy, min_size=1, max_size=50))
def test_drain_is_commit_ordered_and_complete(moves):
    """Commits arrive with nondecreasing sim time; the sort-free drain
    must hand them back complete and still time-ordered."""
    moves = sorted(moves, key=lambda m: m[1])
    state = make_state(merging=False)
    for entity_id, time, distance in moves:
        state.enqueue(make_move(entity_id, time, distance))
    drained = state.drain()
    assert len(drained) == len(moves)
    times = [update.time for update in drained]
    assert times == sorted(times)
    assert not state.has_pending


@given(st.lists(move_strategy, min_size=1, max_size=50))
def test_drain_with_merging_preserves_commit_time_order(moves):
    """With merging on, the survivor of each key takes its *latest*
    commit position, so the drained batch is still time-ordered."""
    moves = sorted(moves, key=lambda m: m[1])
    state = make_state(merging=True)
    for entity_id, time, distance in moves:
        state.enqueue(make_move(entity_id, time, distance))
    drained = state.drain()
    times = [update.time for update in drained]
    assert times == sorted(times)
    # One survivor per distinct key: the newest update for that entity.
    newest = {}
    for entity_id, time, distance in moves:
        newest[entity_id] = time
    assert {u.entity_id: u.time for u in drained} == newest


@given(st.lists(move_strategy, min_size=1, max_size=50))
def test_oldest_pending_time_is_first_enqueued(moves):
    """Staleness is measured from the moment the queue became non-empty:
    the anchor is the *first* enqueued update's timestamp and it never
    moves until the queue drains."""
    state = make_state(merging=False)
    for entity_id, time, distance in moves:
        state.enqueue(make_move(entity_id, time, distance))
    assert state.oldest_pending_time == moves[0][1]
    state.drain()
    assert state.oldest_pending_time is None


# ----------------------------------------------------------------------
# Event queue
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=100))
def test_event_queue_pops_in_nondecreasing_time(times):
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    popped = []
    while (event := queue.pop()) is not None:
        popped.append(event.time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=500))
def test_histogram_quantiles_close_to_rank_quantile(values):
    """The histogram's contract: its q-quantile approximates the value at
    rank ceil(q*n) with bounded *relative* error (one bucket), flooring
    small values into the sub-resolution bucket."""
    hist = Histogram("h", precision=0.02)
    for value in values:
        hist.record(value)
    ordered = sorted(values)
    for q in (0.5, 0.9, 0.99):
        rank = max(0, math.ceil(q * len(ordered)) - 1)
        exact = ordered[rank]
        approx = hist.quantile(q)
        if exact < hist.min_value:
            assert approx == 0.0
        else:
            assert exact * 0.95 <= approx <= exact * 1.05


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300))
def test_describe_is_order_invariant(values):
    forward = describe(values)
    backward = describe(list(reversed(values)))
    # Percentiles sort internally, so they match exactly; the mean is a
    # float sum and may differ by rounding in the last ulp.
    assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
    assert (forward.minimum, forward.p50, forward.p95, forward.p99, forward.maximum) == (
        backward.minimum, backward.p50, backward.p95, backward.p99, backward.maximum
    )


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300))
@settings(max_examples=50)
def test_describe_percentiles_are_monotone(values):
    summary = describe(values)
    assert summary.minimum <= summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
