"""S17 flat columnar commit path: differential + targeted unit tests.

The batched pipeline's contract is *exact* equivalence with the legacy
per-object path: same deliveries in the same order, same stats, and
bit-equal float accounting. The randomized differential here drives
identical op tapes (commits with exclusions, churny subscriptions, bound
changes, repartitioning, ticks) through both stores and compares
everything; the unit tests pin the individually tricky mechanisms (slot
recycling, exclusion exactness, what an always-excluded subscriber
retains, the commit_many run cache) and the I9 auditor's ability to
catch columnar corruption.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import Bounds
from repro.core.dyconit import Dyconit
from repro.core.invariants import InvariantAuditor
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.stats import DyconitStats
from repro.policies.fixed import FixedBoundsPolicy
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3

from tests.conftest import PerObjectDyconit, RecordingSubscriber


def move(entity_id=1, time=0.0, dx=1.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(dx, 0, 0))


CHUNK_A = ("chunk", 0, 0)
CHUNK_B = ("chunk", 1, 0)
CHUNKS = [CHUNK_A, CHUNK_B, ("chunk", 4, 0), ("chunk", 5, 0)]
REGIONS = ((0, 0), (1, 0))

BOUNDS_CHOICES = [
    Bounds(5.0, 100.0),
    Bounds(50.0, 1000.0),
    Bounds(math.inf, 100.0),
    Bounds(math.inf, math.inf),
    Bounds(math.inf, math.inf, order=3),
    Bounds(2.0, math.inf),
    Bounds.ZERO,
]

#: Binary-inexact weights: bit-equality of the error columns only holds
#: if both paths perform the same float additions in the same order.
DX_CHOICES = [0.1, 0.3, 1.0, 2.5]


def make_op_tape(seed: int, length: int = 400) -> list[tuple]:
    """One reproducible op tape, valid against either store."""
    rng = random.Random(seed)
    subscribed: set[tuple] = set()
    ops: list[tuple] = []
    for _ in range(length):
        roll = rng.random()
        chunk = rng.choice(CHUNKS)
        sid = rng.randint(1, 3)
        if roll < 0.45:
            exclude = rng.choice([None, None, sid])
            ops.append(
                ("commit", chunk, rng.randint(1, 5), rng.choice(DX_CHOICES), exclude)
            )
        elif roll < 0.55:
            batch = [
                (
                    rng.choice(CHUNKS if rng.random() < 0.3 else [chunk]),
                    rng.randint(1, 5),
                    rng.choice(DX_CHOICES),
                    rng.choice([None, sid]),
                )
                for _ in range(rng.randint(2, 8))
            ]
            ops.append(("commit_many", batch))
        elif roll < 0.7:
            bounds = rng.choice([None] + BOUNDS_CHOICES)
            ops.append(("subscribe", chunk, sid, bounds))
            subscribed.add((chunk, sid))
        elif roll < 0.78:
            if subscribed:
                chunk, sid = rng.choice(sorted(subscribed, key=repr))
                ops.append(("unsubscribe", chunk, sid))
                subscribed.discard((chunk, sid))
        elif roll < 0.86:
            if subscribed:
                chunk, sid = rng.choice(sorted(subscribed, key=repr))
                ops.append(("set_bounds", chunk, sid, rng.choice(BOUNDS_CHOICES)))
        elif roll < 0.92:
            ops.append(("tick", rng.choice([30.0, 150.0, 700.0])))
        elif roll < 0.96:
            ops.append(("merge", rng.choice(REGIONS)))
        else:
            ops.append(("split", rng.choice(REGIONS)))
    return ops


def run_tape(ops: list[tuple], state_store: str):
    clock = {"now": 0.0}
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(50.0, 1000.0)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        state_store=state_store,
    )
    recs = {sid: RecordingSubscriber(subscriber_id=sid) for sid in (1, 2, 3)}
    for op in ops:
        kind = op[0]
        if kind == "commit":
            __, chunk, entity, dx, exclude = op
            system.commit_to(chunk, move(entity, clock["now"], dx), exclude)
        elif kind == "commit_many":
            batch = [
                (chunk, move(entity, clock["now"], dx), exclude)
                for chunk, entity, dx, exclude in op[1]
            ]
            system.commit_many(batch)
        elif kind == "subscribe":
            __, chunk, sid, bounds = op
            system.subscribe(chunk, recs[sid].subscriber, bounds=bounds)
        elif kind == "unsubscribe":
            system.unsubscribe(op[1], op[2])
        elif kind == "set_bounds":
            try:
                system.set_bounds(op[1], op[2], op[3])
            except KeyError:
                pass  # merged away mid-tape identically on both sides
        elif kind == "tick":
            clock["now"] += op[1]
            system.tick()
        elif kind == "merge":
            region = op[1]
            members = [c for c in CHUNKS if (c[1] // 4, c[2] // 4) == region]
            system.merge_dyconits(members, ("region", 4, *region))
        elif kind == "split":
            system.split_dyconit(("region", 4, *op[1]))
    return system, recs


def final_states(system):
    out = {}
    for dyconit in sorted(system.dyconits(), key=lambda d: repr(d.dyconit_id)):
        for state in dyconit.subscription_states():
            out[(dyconit.dyconit_id, state.subscriber.subscriber_id)] = (
                state.bounds,
                list(state.pending.items()),
                state.accumulated_error,
                state.oldest_pending_time,
                state.enqueued_count,
                state.merged_count,
            )
        out[("hotness", dyconit.dyconit_id)] = (
            dyconit.commit_count,
            dyconit.total_committed_weight,
        )
    return out


@pytest.mark.parametrize("seed", range(8))
def test_differential_flat_vs_legacy(seed):
    ops = make_op_tape(seed)
    flat_system, flat_recs = run_tape(ops, "memory")
    legacy_system, legacy_recs = run_tape(ops, "per-object")
    # Non-vacuity: the reference store never hands out a columnar dyconit.
    assert all(isinstance(dyconit, PerObjectDyconit) for dyconit in legacy_system.dyconits())
    for sid in (1, 2, 3):
        assert flat_recs[sid].deliveries == legacy_recs[sid].deliveries
    assert flat_system.stats == legacy_system.stats
    assert final_states(flat_system) == final_states(legacy_system)
    auditor = InvariantAuditor()
    assert auditor.check(flat_system) == []
    assert auditor.check(legacy_system) == []


@pytest.mark.parametrize("seed", range(4))
def test_differential_with_merging_disabled(seed):
    """E8(a) ablation path: nothing ever superseded, unique queue keys."""
    ops = [op for op in make_op_tape(seed, length=200) if op[0] not in ("merge", "split")]

    def run(state_store):
        clock = {"now": 0.0}
        system = DyconitSystem(
            FixedBoundsPolicy(Bounds(50.0, 1000.0)),
            ChunkPartitioner(),
            time_source=lambda: clock["now"],
            state_store=state_store,
            merging_enabled=False,
        )
        recs = {sid: RecordingSubscriber(subscriber_id=sid) for sid in (1, 2, 3)}
        for op in ops:
            if op[0] == "commit":
                __, chunk, entity, dx, exclude = op
                system.commit_to(chunk, move(entity, clock["now"], dx), exclude)
            elif op[0] == "commit_many":
                system.commit_many(
                    [
                        (chunk, move(entity, clock["now"], dx), exclude)
                        for chunk, entity, dx, exclude in op[1]
                    ]
                )
            elif op[0] == "subscribe":
                system.subscribe(op[1], recs[op[2]].subscriber, bounds=op[3])
            elif op[0] == "unsubscribe":
                system.unsubscribe(op[1], op[2])
            elif op[0] == "set_bounds":
                try:
                    system.set_bounds(op[1], op[2], op[3])
                except KeyError:
                    pass
            elif op[0] == "tick":
                clock["now"] += op[1]
                system.tick()
        return system, recs

    flat_system, flat_recs = run("memory")
    legacy_system, legacy_recs = run("per-object")
    for sid in (1, 2, 3):
        assert flat_recs[sid].deliveries == legacy_recs[sid].deliveries
    assert flat_system.stats == legacy_system.stats
    # With merging off queue keys are (enqueue ordinal, merge key); I9
    # must accept them (every audited E8(a) run audits such a store).
    assert InvariantAuditor().check(flat_system) == []
    assert final_states(flat_system) == final_states(legacy_system)


# ----------------------------------------------------------------------
# Targeted mechanisms
# ----------------------------------------------------------------------


@pytest.fixture
def clock():
    return {"now": 0.0}


@pytest.fixture
def system(clock):
    return DyconitSystem(
        FixedBoundsPolicy(Bounds(50.0, 1000.0)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
    )


def _columns(system, chunk):
    dyconit = system.get(system.resolve(chunk))
    assert isinstance(dyconit, Dyconit)
    return dyconit


def test_exclusion_keeps_error_bit_exact(system):
    """The excluded slot's accumulator is saved/restored, never
    add-then-subtract (which changes the value for inexact weights)."""
    rec1, rec2 = RecordingSubscriber(1), RecordingSubscriber(2)
    system.subscribe(CHUNK_A, rec1.subscriber, bounds=Bounds(math.inf, math.inf))
    system.subscribe(CHUNK_A, rec2.subscriber, bounds=Bounds(math.inf, math.inf))
    expected = 0.0
    for i in range(7):
        system.commit_to(CHUNK_A, move(1, 0.0, 0.1), exclude_subscriber=2)
        expected += move(1, 0.0, 0.1).weight
    system.commit_to(CHUNK_A, move(1, 0.0, 0.3), exclude_subscriber=1)
    state1 = system.get(CHUNK_A).get_state(1)
    state2 = system.get(CHUNK_A).get_state(2)
    assert state1.accumulated_error == expected  # bit-equal, not approx
    assert state2.accumulated_error == move(1, 0.0, 0.3).weight


def test_slot_recycling_preserves_iteration_order(system):
    """Unsubscribe compacts in place; a re-subscribe lands at the end —
    the same order a dict delete + re-add produces on the legacy path."""
    recs = [RecordingSubscriber(sid) for sid in (1, 2, 3)]
    for rec in recs:
        system.subscribe(CHUNK_A, rec.subscriber)
    system.unsubscribe(CHUNK_A, 2)
    system.subscribe(CHUNK_A, recs[1].subscriber)
    order = [
        s.subscriber.subscriber_id
        for s in system.get(CHUNK_A).subscription_states()
    ]
    assert order == [1, 3, 2]


def test_zero_bounds_flush_immediately(system):
    rec = RecordingSubscriber(1)
    system.subscribe(CHUNK_A, rec.subscriber, bounds=Bounds.ZERO)
    system.commit_to(CHUNK_A, move(1, 0.0, 2.0))
    assert len(rec.delivered_updates) == 1


def test_commit_many_equals_commit_to_loop(clock):
    def run(batched_call):
        system = DyconitSystem(
            FixedBoundsPolicy(Bounds(5.0, 500.0)),
            ChunkPartitioner(),
            time_source=lambda: clock["now"],
        )
        recs = {sid: RecordingSubscriber(sid) for sid in (1, 2)}
        system.subscribe(CHUNK_A, recs[1].subscriber)
        system.subscribe(CHUNK_B, recs[2].subscriber)
        batch = [
            (CHUNK_A, move(1, 0.0, 2.0), None),
            (CHUNK_A, move(2, 0.0, 2.0), 1),
            (CHUNK_B, move(3, 0.0, 2.0), None),
            (CHUNK_A, move(1, 0.0, 2.0), None),
        ]
        if batched_call:
            system.commit_many(batch)
        else:
            for dyconit_id, update, exclude in batch:
                system.commit_to(dyconit_id, update, exclude)
        return system, recs

    batched_system, batched_recs = run(True)
    loop_system, loop_recs = run(False)
    for sid in (1, 2):
        assert batched_recs[sid].deliveries == loop_recs[sid].deliveries
    assert batched_system.stats == loop_system.stats


def test_commit_many_survives_mid_batch_repartition(clock):
    """A delivery handler that merges dyconits used to run mid-batch and
    invalidate the run's cached resolution. The batch is one flush scope
    now: the handler sees one delivery when it ends, so every commit
    lands under the resolution it was made with and the merge moves
    them all."""
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds.ZERO),  # every commit flushes immediately
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
    )
    target = ("region", 4, 0, 0)
    deliveries = []

    def deliver(segments):
        deliveries.append([dyconit_id for dyconit_id, __ in segments])
        if len(deliveries) == 1:
            system.merge_dyconits([CHUNK_A, CHUNK_B], target)

    from repro.core.subscription import Subscriber

    system.subscribe(CHUNK_A, Subscriber(subscriber_id=1, deliver=deliver))
    batch = [(CHUNK_A, move(i + 1, 0.0, 1.0), None) for i in range(4)]
    system.commit_many(batch)
    assert deliveries == [[CHUNK_A] * 4]
    assert system.resolve(CHUNK_A) == target
    assert system.get(target).commit_count == 4
    assert InvariantAuditor().check(system) == []
    system.commit_many(batch)  # re-resolved: lands on the merge target
    assert system.get(target).commit_count == 8
    assert deliveries[1] == [target] * 4


def test_columnar_from_creation_to_removal(system, clock):
    """Merge, restore and split write slots: no memory-store handle ever
    drops to per-object states (at the parent all three did, for life)."""
    rec1, rec2 = RecordingSubscriber(1), RecordingSubscriber(2)
    system.subscribe(CHUNK_A, rec1.subscriber)
    system.subscribe(CHUNK_A, rec2.subscriber)
    system.subscribe(CHUNK_B, rec1.subscriber)
    system.commit_to(CHUNK_B, move(1, 0.0, 0.1))
    system.commit_to(CHUNK_A, move(2, 5.0, 0.3), exclude_subscriber=2)
    target = system.merge_dyconits([CHUNK_A, CHUNK_B], ("region", 4, 0, 0))
    assert isinstance(target, Dyconit)
    assert [u.time for u in target.get_state(1).pending.values()] == [0.0, 5.0]
    resumed = DyconitSystem(
        FixedBoundsPolicy(Bounds(10.0, 1000.0)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
    )
    resumed.restore(system.snapshot(), {1: rec1.subscriber, 2: rec2.subscriber})
    assert final_states(resumed) == final_states(system)
    for each in (system, resumed):
        each.split_dyconit(("region", 4, 0, 0))
        assert each.dyconit_count == 2
        assert all(isinstance(dyconit, Dyconit) for dyconit in each.dyconits())
        assert InvariantAuditor().check(each) == []
    assert rec1.delivered_updates == [move(1, 0.0, 0.1), move(2, 5.0, 0.3)] * 2


# ----------------------------------------------------------------------
# I9 catches columnar corruption
# ----------------------------------------------------------------------


def _keys(violations):
    return {violation.invariant for violation in violations}


@pytest.fixture
def corrupt_ready(system):
    rec1, rec2 = RecordingSubscriber(1), RecordingSubscriber(2)
    system.subscribe(CHUNK_A, rec1.subscriber, bounds=Bounds(50.0, 1000.0))
    system.subscribe(CHUNK_A, rec2.subscriber, bounds=Bounds(50.0, 1000.0))
    system.commit_to(CHUNK_A, move(1, 0.0, 1.0))
    system.commit_to(CHUNK_A, move(2, 0.0, 1.0), exclude_subscriber=2)
    assert InvariantAuditor().check(system) == []
    return system, _columns(system, CHUNK_A)


def test_i9_detects_error_column_drift(corrupt_ready):
    """What run-time audit still owns of the error column: nothing on an
    empty queue, and never less than the surviving pending weight."""
    system, flat = corrupt_ready
    flat.err[0] = 0.5  # two unit-weight moves are pending on slot 0
    assert "I4.queue-error-floor" in _keys(InvariantAuditor().check(system))
    flat.err[0] = 2.0
    system.flush(CHUNK_A, 2)
    flat.err[1] = 0.5
    assert "I9.queue-column" in _keys(InvariantAuditor().check(system))


def test_i9_detects_count_column_drift(corrupt_ready):
    system, flat = corrupt_ready
    flat.queues[1].clear()  # the columns still say "pending since 0.0"
    assert "I9.queue-column" in _keys(InvariantAuditor().check(system))


def test_i9_detects_late_staleness_gate(corrupt_ready):
    system, flat = corrupt_ready
    flat.min_deadline += 10_000.0  # the gate would now fire late
    assert "I9.gates" in _keys(InvariantAuditor().check(system))


def test_i9_detects_empty_set_desync(corrupt_ready):
    system, flat = corrupt_ready
    flat.n_pending -= 1  # both slots have pending updates
    assert "I9.pending-count" in _keys(InvariantAuditor().check(system))


def test_i9_detects_slot_table_tamper(corrupt_ready):
    system, flat = corrupt_ready
    flat.slots[1], flat.slots[2] = flat.slots[2], flat.slots[1]
    assert "I9.slot-mirror" in _keys(InvariantAuditor().check(system))


def test_i9_detects_slot_table_out_of_slot_order(corrupt_ready):
    """Every entry still round-trips, but the retune reads subscriber ids
    off the table in its order (``subscriber_ids``), so that is checked."""
    system, flat = corrupt_ready
    flat.slots = dict(reversed(list(flat.slots.items())))
    assert "I9.slot-mirror" in _keys(InvariantAuditor().check(system))


def test_i9_detects_id_column_out_of_step(corrupt_ready):
    """The retune sweep maps each slot to its client by the id column
    (``subscriber_ids``), so it must name the slot table's ids in order."""
    system, flat = corrupt_ready
    flat._ids[:2] = flat._ids[1::-1]
    assert "I9.slot-mirror" in _keys(InvariantAuditor().check(system))


def test_i9_commit_buffer_must_drain_at_barrier(sim, server_factory):
    from repro.policies.fixed import FixedBoundsPolicy

    server = server_factory(policy=FixedBoundsPolicy(Bounds(50.0, 1000.0)))
    server.connect("alice", handler=lambda delivered: None)
    sim.run_until(200.0)
    auditor = InvariantAuditor()
    assert auditor.check_server(server) == []
    server._commit_buffer = [(CHUNK_A, move(1, 0.0, 1.0), None)]
    assert "I9.commit-buffer" in _keys(auditor.check_server(server))
    server._commit_buffer = None


# ----------------------------------------------------------------------
# Hotness stats fix regression (manager level)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("flat", [True, False])
def test_hotness_counts_only_received_commits(clock, flat):
    system = DyconitSystem(
        FixedBoundsPolicy(Bounds(math.inf, math.inf)),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        state_store="memory" if flat else "per-object",
    )
    system.commit_to(CHUNK_A, move(1, 0.0, 2.0))  # nobody subscribed
    assert system.get(CHUNK_A).commit_count == 0
    rec = RecordingSubscriber(7)
    system.subscribe(CHUNK_A, rec.subscriber)
    system.commit_to(CHUNK_A, move(1, 0.0, 2.0), exclude_subscriber=7)
    assert system.get(CHUNK_A).commit_count == 0  # only the originator
    system.commit_to(CHUNK_A, move(1, 0.0, 2.0))
    assert system.get(CHUNK_A).commit_count == 1
    assert system.get(CHUNK_A).total_committed_weight == move(1, 0.0, 2.0).weight
    # stats.commits still counts every attempt — it measures load, not heat.
    assert system.stats.commits == 3


def test_stats_dataclass_unchanged_fields():
    # commit_many must feed the same counters commit_to does; pin the
    # field list so a drive-by rename cannot silently decouple them.
    assert set(DyconitStats.__dataclass_fields__) >= {
        "commits", "updates_enqueued", "updates_merged", "bound_checks", "flushes",
    }


# ----------------------------------------------------------------------
# A subscriber excluded from every commit (S18 satellite fix)
# ----------------------------------------------------------------------

#: The deleted shared log's compaction period: the tapes below are the
#: ones that used to cross it.
_TAPE_UNIT = 2048


def _queued(flat):
    return sum(len(queue) for queue in flat.queues)


def test_stalled_excluded_subscriber_does_not_pin_the_log(system, clock):
    """A subscriber excluded from every commit (a peer subscriber on a
    dyconit only its own shard writes to) retains nothing and holds
    nobody else's updates, however long the others commit and drain
    around it (under the shared log it pinned every entry)."""
    recs = {sid: RecordingSubscriber(sid) for sid in (1, 2, 3)}
    for sid in (1, 2, 3):
        system.subscribe(
            CHUNK_A, recs[sid].subscriber, bounds=Bounds(math.inf, math.inf)
        )
    flat = _columns(system, CHUNK_A)
    for i in range(3 * _TAPE_UNIT):
        system.commit_to(CHUNK_A, move(1, clock["now"], 0.1), exclude_subscriber=3)
        # Alternate drains: one of subscribers 1/2 always holds an entry.
        system.flush(CHUNK_A, 1 if i % 2 == 0 else 2)
        assert _queued(flat) == 1 and not flat.queues[flat.slots[3]]
    assert InvariantAuditor().check(system) == []


def test_excluded_only_window_prefix_is_skipped_at_trim(system, clock):
    """A mostly-excluded subscriber with one real pending entry keeps
    exactly that entry through long runs of traffic that excludes it."""
    recs = {sid: RecordingSubscriber(sid) for sid in (1, 2, 3)}
    for sid in (1, 2, 3):
        system.subscribe(
            CHUNK_A, recs[sid].subscriber, bounds=Bounds(math.inf, math.inf)
        )
    flat = _columns(system, CHUNK_A)
    for i in range(_TAPE_UNIT + _TAPE_UNIT // 2):
        system.commit_to(CHUNK_A, move(1, clock["now"], 0.1), exclude_subscriber=3)
        system.flush(CHUNK_A, 1 if i % 2 == 0 else 2)
    # Now subscriber 3 gains one real pending entry...
    marker = move(2, clock["now"], 0.3)
    system.commit_to(CHUNK_A, marker)
    # ...followed by more excluded-for-3 traffic.
    for i in range(_TAPE_UNIT):
        system.commit_to(CHUNK_A, move(1, clock["now"], 0.1), exclude_subscriber=3)
        system.flush(CHUNK_A, 1 if i % 2 == 0 else 2)
    assert list(flat.get_state(3).pending.values()) == [marker]
    assert _queued(flat) == 2  # 3's marker and the one undrained move
    assert InvariantAuditor().check(system) == []
    # The marker still delivers exactly once.
    system.flush(CHUNK_A, 3)
    assert recs[3].delivered_updates == [marker]


@settings(deadline=None, max_examples=30)
@given(
    tape=st.lists(
        st.one_of(
            st.tuples(
                st.just("commit"),
                st.integers(min_value=1, max_value=3),
                st.sampled_from(DX_CHOICES),
            ),
            st.tuples(st.just("flush"), st.integers(min_value=1, max_value=2)),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_hypothesis_stalled_cursor_stays_bounded_and_exact(tape):
    """Property: under any interleaving of commits (all excluding the
    stalled subscriber 3) and drains of subscribers 1/2, the flat store
    stays bit-identical to the legacy store and passes the auditor."""
    # Every example ends in a long run that only ever excludes 3;
    # hypothesis varies the prefix it lands on (merged keys,
    # half-drained queues).
    tape = tape + [("commit", 1, 0.1)] * 24

    def run(state_store):
        clock = {"now": 0.0}
        system = DyconitSystem(
            FixedBoundsPolicy(Bounds(math.inf, math.inf)),
            ChunkPartitioner(),
            time_source=lambda: clock["now"],
            state_store=state_store,
        )
        recs = {sid: RecordingSubscriber(subscriber_id=sid) for sid in (1, 2, 3)}
        for sid in (1, 2, 3):
            system.subscribe(CHUNK_A, recs[sid].subscriber)
        for op in tape:
            if op[0] == "commit":
                __, entity, dx = op
                clock["now"] += 10.0
                system.commit_to(
                    CHUNK_A, move(entity, clock["now"], dx), exclude_subscriber=3
                )
            else:
                system.flush(CHUNK_A, op[1])
        return system, recs

    flat_system, flat_recs = run("memory")
    legacy_system, legacy_recs = run("per-object")
    for sid in (1, 2, 3):
        assert flat_recs[sid].deliveries == legacy_recs[sid].deliveries
    assert flat_system.stats == legacy_system.stats
    assert final_states(flat_system) == final_states(legacy_system)
    assert InvariantAuditor().check(flat_system) == []
