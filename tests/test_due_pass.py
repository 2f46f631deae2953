"""Flush scopes and the due pass (S22).

* the product's due pass against :func:`tests.conftest.naive_flush_due`
  (every dyconit, every pending state, one queue at a time) over 2,000
  ticks of an adaptive single server and a 2-shard cluster: the same
  flushes in every tick, the same packets in the same order per client;
* ties: under a ``fixed`` policy every pair deadline of a tick ties, so
  the per-client packet order rests on the tie-break alone — it must not
  depend on ``PYTHONHASHSEED`` nor on a kill-at-tick-K / resume;
* flush scopes: one delivery per subscriber per scope, immediate outside
  one, and what a raising handler leaves behind (nothing);
* what the pass gives away to telemetry.

Run as ``python -m tests.test_due_pass`` this module prints the tie
run's per-client stream digests (the subprocess half of the tie test).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bots.workload import Workload
from repro.core.bounds import Bounds
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.subscription import Subscriber
from repro.policies import AdaptiveBoundsPolicy
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.engine import GameServer
from repro.telemetry.hub import Telemetry
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3
from repro.world.world import World

from tests import test_bench_shaped_audit as shaped
from tests.conftest import RecordingSubscriber
from tests.test_batched_differential import (
    SEED,
    assert_streams_equal,
    make_config,
    make_spec,
    run_cluster,
    run_single,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CHUNK_A, CHUNK_B, CHUNK_C = ("chunk", 0, 0), ("chunk", 1, 0), ("chunk", 2, 0)


def move(entity_id=1, time=0.0):
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(1, 0, 0))


def make_system(clock, bounds=Bounds(1e9, 1000.0), **kwargs) -> DyconitSystem:
    return DyconitSystem(
        FixedBoundsPolicy(bounds),
        ChunkPartitioner(),
        time_source=lambda: clock["now"],
        **kwargs,
    )


@pytest.fixture
def clock():
    return {"now": 0.0}


# ----------------------------------------------------------------------
# Product due pass ≡ naive reference, tick by tick
# ----------------------------------------------------------------------


def adaptive():
    return AdaptiveBoundsPolicy(tighten_factor=0.95)


def run_adaptive_single():
    packets, server = run_single("memory", adaptive)
    return packets, [server.dyconits]


def run_adaptive_cluster():
    packets, cluster = run_cluster("memory", adaptive)
    return packets, [shard.dyconits for shard in cluster.shards]


@pytest.fixture
def flush_log(monkeypatch):
    """Every flush of every system, as the manager accounts it."""
    log = []
    original = DyconitSystem._flushed

    def recording(self, dyconit_id, subscriber, updates, reason):
        log.append(
            (self.now, repr(dyconit_id), subscriber.subscriber_id, reason, tuple(updates))
        )
        original(self, dyconit_id, subscriber, updates, reason)

    monkeypatch.setattr(DyconitSystem, "_flushed", recording)
    return log


@pytest.mark.parametrize(
    "run", [run_adaptive_single, run_adaptive_cluster], ids=["single", "2-shard"]
)
def test_due_pass_matches_the_naive_reference_per_tick(run, naive_due_pass, flush_log):
    packets, systems = run()
    product_log = list(flush_log)
    flush_log.clear()
    with naive_due_pass():
        reference_packets, reference_systems = run()

    def per_tick(log):
        ticks = {}
        for now, *flush in log:
            ticks.setdefault(now, []).append(tuple(flush))
        return {now: sorted(flushes, key=repr) for now, flushes in ticks.items()}

    assert per_tick(product_log) == per_tick(flush_log)  # the same sets...
    assert product_log == flush_log  # ...accounted in the same order
    assert_streams_equal(reference_packets, packets)
    staleness = sum(system.stats.flushes_staleness for system in systems)
    assert staleness > 2_000  # the pass under test did the flushing
    for system, reference in zip(systems, reference_systems):
        # Everything but the examined count, which the reference inflates
        # by visiting every dyconit every tick.
        reference.stats.bound_checks = system.stats.bound_checks
        assert system.stats == reference.stats


# ----------------------------------------------------------------------
# Ties: hash seed and kill/resume must not show
# ----------------------------------------------------------------------

TIE_BOTS = 8


def tie_policy():
    # One staleness bound for everybody: queues that became pending in
    # the same tick are due in the same tick with equal deadlines.
    return FixedBoundsPolicy(Bounds(numerical=1e9, staleness_ms=150.0))


def stream_digests(logs) -> dict[int, str]:
    return {
        client_id: hashlib.sha256("\n".join(log).encode()).hexdigest()
        for client_id, log in sorted(logs.items())
    }


def tie_run_digests():
    """``(unkilled, resumed tail, unkilled tail)`` stream digests."""
    baseline, logs, tape = shaped.launch(
        until_ms=shaped.END_MS, policy=tie_policy(), bots=TIE_BOTS
    )
    assert baseline.dyconits.stats.flushes_staleness > 1_000
    killed, __, ___ = shaped.launch(
        until_ms=(shaped.KILL_TICK + 4) * shaped.TICK_MS,
        policy=tie_policy(),
        bots=TIE_BOTS,
    )
    store = killed.dyconits.state_store
    del killed
    resumed, resumed_logs = shaped.resume(store, logs, tape)
    tails = {
        client_id: log[-len(resumed_logs[client_id]):]
        for client_id, log in logs.items()
    }
    assert all(len(log) > 100 for log in resumed_logs.values())
    baseline.close()
    resumed.close()
    return stream_digests(logs), stream_digests(resumed_logs), stream_digests(tails)


def test_tied_deadlines_order_survives_kill_and_resume():
    __, resumed, unkilled_tail = tie_run_digests()
    assert len(resumed) == TIE_BOTS
    assert resumed == unkilled_tail


@pytest.mark.slow
def test_tied_deadlines_order_is_hash_seed_independent():
    def transcript(hash_seed: str) -> str:
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "tests.test_due_pass"],
            capture_output=True, text=True, env=env, timeout=300, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first, second = transcript("0"), transcript("12345")
    assert first == second
    assert first.count("\n") == 2 * TIE_BOTS


# ----------------------------------------------------------------------
# Flush scopes
# ----------------------------------------------------------------------


def call_recorder(subscriber_id, order=None):
    """A subscriber recording each ``deliver`` call as its dyconit ids
    (and, in ``order``, whose turn it was)."""
    calls = []

    def deliver(segments):
        calls.append([dyconit_id for dyconit_id, __ in segments])
        if order is not None:
            order.append(subscriber_id)

    return Subscriber(subscriber_id=subscriber_id, deliver=deliver), calls


def test_tick_hands_each_subscriber_its_segments_once_in_canonical_order(clock):
    system = make_system(clock)
    order = []
    first, first_calls = call_recorder(1, order)
    second, second_calls = call_recorder(2, order)
    # Subscriber 2 registers first; its membership order is C, A, B.
    for chunk in (CHUNK_C, CHUNK_A, CHUNK_B):
        system.subscribe(chunk, second)
    for chunk in (CHUNK_A, CHUNK_B, CHUNK_C):
        system.subscribe(chunk, first)
    system.commit_to(CHUNK_B, move(time=0.0))  # deadline 1000
    clock["now"] = 100.0
    system.commit_to(CHUNK_C, move(time=100.0))  # deadline 1100
    system.commit_to(CHUNK_A, move(time=100.0))  # deadline 1100: ties with C
    clock["now"] = 1100.0
    assert system.tick() == 6
    assert order == [2, 1]  # registration order
    # By deadline, ties by the subscriber's own membership order.
    assert second_calls == [[CHUNK_B, CHUNK_C, CHUNK_A]]
    assert first_calls == [[CHUNK_B, CHUNK_A, CHUNK_C]]
    assert system.stats.flushes == 6 and system.stats.flushes_staleness == 6


def test_commit_many_is_one_scope_and_a_lone_commit_delivers_at_once(clock):
    system = make_system(clock, Bounds.ZERO)  # every commit flushes
    subscriber, calls = call_recorder(1)
    for chunk in (CHUNK_A, CHUNK_B):
        system.subscribe(chunk, subscriber)
    system.commit_many(
        [(CHUNK_A, move(1), None), (CHUNK_B, move(2), None), (CHUNK_A, move(3), None)]
    )
    assert calls == [[CHUNK_A, CHUNK_B, CHUNK_A]]  # drain order
    system.commit_to(CHUNK_B, move(4))
    system.commit_to(CHUNK_A, move(5))
    assert calls[1:] == [[CHUNK_B], [CHUNK_A]]
    assert system._outbox is None


def test_policy_sweep_and_forced_flushes_are_scopes_too(clock):
    system = make_system(clock)
    subscriber, calls = call_recorder(1)
    for chunk in (CHUNK_A, CHUNK_B, CHUNK_C):
        system.subscribe(chunk, subscriber)
        system.commit_to(chunk, move(time=0.0))
    system.flush_subscriber(1)
    assert calls == [[CHUNK_A, CHUNK_B, CHUNK_C]]
    for chunk in (CHUNK_A, CHUNK_B):
        system.commit_to(chunk, move(time=0.0))

    class Tightening(FixedBoundsPolicy):
        def on_subscriber_moved(self, system, subscriber):
            for chunk in system.subscription_ids_of(subscriber.subscriber_id):
                system.set_bounds(chunk, subscriber.subscriber_id, Bounds.ZERO)

    system.policy = Tightening(Bounds.ZERO)
    system.notify_subscriber_moved(1)  # the sweep trips A and B
    assert calls[1:] == [[CHUNK_A, CHUNK_B]]
    system.commit_to(CHUNK_C, move(time=0.0))  # zero bounds: flushes at once
    assert calls[2:] == [[CHUNK_C]]
    system.flush_all()
    assert len(calls) == 3  # nothing pending: no empty delivery


def test_raising_handler_propagates_with_the_outbox_emptied(clock):
    system = make_system(clock)
    good = RecordingSubscriber(1)
    bad_calls = []

    def bad_deliver(segments):
        bad_calls.append(list(segments))
        raise RuntimeError("socket gone")

    bad = Subscriber(subscriber_id=2, deliver=bad_deliver)
    late = RecordingSubscriber(3)
    for subscriber in (good.subscriber, bad, late.subscriber):
        system.subscribe(CHUNK_A, subscriber)
    system.commit_to(CHUNK_A, move(time=0.0))
    clock["now"] = 1000.0
    with pytest.raises(RuntimeError, match="socket gone"):
        system.tick()
    # Drained and accounted once; the scope is closed and holds nothing.
    assert system._outbox is None
    assert system.stats.flushes == 3
    assert len(good.deliveries) == 1 and len(bad_calls) == 1
    assert late.deliveries == []  # behind the failure: dropped, not kept
    assert system.tick() == 0  # nothing is delivered again...
    system.commit_to(CHUNK_A, move(2, time=1000.0))
    clock["now"] = 2000.0
    bad.deliver = lambda segments: bad_calls.append(list(segments))
    assert system.tick() == 3  # ...and a later scope carries only its own
    assert len(good.deliveries) == 2 and len(late.deliveries) == 1
    assert [len(segments) for segments in bad_calls] == [1, 1]


def test_handler_that_commits_back_runs_outside_the_scope(clock):
    system = make_system(clock)
    echoes = RecordingSubscriber(2)
    system.subscribe(CHUNK_B, echoes.subscriber, bounds=Bounds.ZERO)

    def deliver(segments):
        assert system._outbox is None
        system.commit_to(CHUNK_B, move(9, time=clock["now"]))

    system.subscribe(CHUNK_A, Subscriber(subscriber_id=1, deliver=deliver))
    system.commit_to(CHUNK_A, move(time=0.0))
    clock["now"] = 1000.0
    assert system.tick() == 1
    assert len(echoes.deliveries) == 1  # the echo was delivered, at once


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


def test_scope_reports_pending_dyconits_and_segments_per_delivery(clock):
    telemetry = Telemetry(enabled=True)
    system = make_system(clock, telemetry=telemetry)
    subscriber, __ = call_recorder(1)
    for chunk in (CHUNK_A, CHUNK_B, CHUNK_C):
        system.subscribe(chunk, subscriber)
    system.commit_many([(CHUNK_A, move(time=0.0), None), (CHUNK_B, move(time=0.0), None)])
    assert telemetry.gauge("dyconit_pending_dyconits").value == 2
    clock["now"] = 500.0
    system.commit_many([(CHUNK_C, move(time=500.0), None)])
    clock["now"] = 1000.0
    system.tick()  # A and B due, C not
    assert telemetry.gauge("dyconit_pending_dyconits").value == 1
    segments = telemetry.histogram("dyconit_delivery_segments", min_value=1.0)
    assert segments.count == 1 and segments.total == 2


def test_engine_enters_tick_serialize_once_per_delivery(sim):
    telemetry = Telemetry(enabled=True)
    server = GameServer(
        sim,
        world=World(seed=SEED),
        config=make_config("memory"),
        policy=FixedBoundsPolicy(Bounds(1e9, 150.0)),
        telemetry=telemetry,
    )
    server.start()
    Workload(sim, server, make_spec()).start()
    sim.run_until(4_000.0)
    deliveries = telemetry.histogram("dyconit_delivery_segments", min_value=1.0)
    assert telemetry.span_stats("tick.serialize").count == deliveries.count
    assert deliveries.total == server.dyconits.stats.flushes > deliveries.count


if __name__ == "__main__":
    for digests in tie_run_digests()[:2]:
        for client_id, digest in digests.items():
            print(client_id, digest)
