"""A bench-shaped run under audit, inside tier-1.

``bench/run.py`` checks the invariants once, after its last window, at 40
bots — so a bound-bookkeeping bug that only a retune storm on a live crowd
exposes would surface in the benchmark pipeline, not in ``pytest``. This is
``adaptive-hotspot`` in small: the same public constructors and settings as
``bench/workloads.py`` (hotspot crowd, ``BUILDER_MIX``, joins 10 ms apart,
``AdaptiveBoundsPolicy(tighten_factor=0.95)`` on the memory store), 16 bots,
8 simulated seconds — one full retune sweep per second — with the auditor
on every fifth tick, and a kill-at-tick-K + resume in the middle that must
stay packet-identical per client (restore writes columns: the resumed half
runs its restored subscriptions and its new ones on the same columns, under
the one due rule, with due times rebuilt from the subscriptions).

``vanilla-hotspot`` in small rides along: the same crowd in direct mode,
where every move is encoded once and shared by its viewers and every client
is sent one egress frame per tick, held packet for packet against the
per-session ``broadcast_direct_scan`` reference of :mod:`tests.conftest`
(the auditor's period also turns on per-link FIFO checking) — so a fan-out
bug the bench would only hit at 40 bots surfaces here.
"""

from repro.backends.memory import InMemoryStateStore
from repro.bots.workload import BUILDER_MIX, Workload, WorkloadSpec
from repro.core.dyconit import Dyconit
from repro.gateway.control import ControlPlane
from repro.policies import AdaptiveBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.server.snapshot import restore_server_from_store
from repro.sim.simulator import Simulation

TICK_MS = 50.0
BOTS = 16
SEED = 1
END_MS = 8000.0
#: Between the retunes at 4 s and 5 s, with backlog and dead entries queued.
KILL_TICK = 93


def launch(*, until_ms, direct_mode=False, policy=None, bots=BOTS):
    """Start the crowd; returns ``(server, logs, tape)`` after running to
    ``until_ms``. ``logs`` holds every packet per client id, ``tape`` every
    action as it reached the server ``(time, client id, action)``.
    ``policy`` defaults to the bench's adaptive one."""
    if policy is None and not direct_mode:
        policy = AdaptiveBoundsPolicy(tighten_factor=0.95)
    sim = Simulation()
    store = InMemoryStateStore()
    config = ServerConfig(
        synchronous_delivery=True,
        state_store=store,
        seed=SEED,
        audit_every_n_ticks=5,
    )
    server = GameServer(
        sim,
        config=config,
        policy=policy,
        direct_mode=direct_mode,
    )
    server.control_plane = ControlPlane()
    logs: dict[int, list[str]] = {}
    tape: list[tuple[float, int, object]] = []

    connect, submit_action = server.connect, server.submit_action

    def recording_connect(name, handler, **kwargs):
        log: list[str] = []

        def tee(delivered):
            log.append(repr(delivered.packet))
            handler(delivered)

        session = connect(name, handler=tee, **kwargs)
        logs[session.client_id] = log
        return session

    def recording_submit(client_id, action):
        tape.append((sim.now, client_id, action))
        submit_action(client_id, action)

    server.connect = recording_connect
    server.submit_action = recording_submit
    server.start()
    Workload(
        sim,
        server,
        WorkloadSpec(
            bots=bots,
            seed=SEED,
            movement="hotspot",
            behavior=BUILDER_MIX,
            arrival_stagger_ms=10.0,
            measure_interval_ms=0.0,
        ),
    ).start()
    if not direct_mode:  # a direct-mode server has no store to checkpoint to
        sim.schedule_at(
            KILL_TICK * TICK_MS - 1.0,
            lambda: server.control_plane.submit({"kind": "checkpoint", "key": "ck"}),
        )
    sim.run_until(until_ms)
    return server, logs, tape


def resume(store, baseline_logs, tape):
    """Restore checkpoint ``ck`` from ``store``, replay the part of
    ``tape`` after it and run to ``END_MS``; returns ``(server, logs)``."""
    resumed_logs = {client_id: [] for client_id in baseline_logs}
    resumed = restore_server_from_store(
        store,
        "ck",
        handlers={
            client_id: (lambda delivered, log=log: log.append(repr(delivered.packet)))
            for client_id, log in resumed_logs.items()
        },
    )
    sim = resumed.sim
    assert sim.now == KILL_TICK * TICK_MS
    # Restore writes slots: the resumed memory store is columnar again.
    handles = list(resumed.dyconits.dyconits())
    assert handles and all(isinstance(handle, Dyconit) for handle in handles)
    for time, client_id, action in tape:
        if time > sim.now:
            sim.schedule_at(
                time, lambda c=client_id, a=action: resumed.submit_action(c, a)
            )
    sim.run_until(END_MS)
    resumed.audit_now()
    return resumed, resumed_logs


def test_audited_retune_storms_and_mid_run_kill_resume():
    baseline, baseline_logs, tape = launch(until_ms=END_MS)
    baseline.audit_now()
    policy = baseline.dyconits.policy
    factors = [factor for __, factor in policy.factor_history]
    retunes = sum(1 for a, b in zip([1.0] + factors, factors) if a != b)
    assert retunes >= 7, factors
    stats = baseline.dyconits.stats
    assert stats.flushes_numerical > 100 and stats.flushes_staleness > 1000
    # Bots act every 100 ms from joins 10 ms apart and their actions take
    # 25 ms upstream: nothing on the tape arrives on a tick barrier, so
    # "after the checkpoint" is unambiguous.
    assert all(time % TICK_MS for time, __, ___ in tape)

    # The same run again, killed a few ticks past its checkpoint: objects
    # abandoned, only the store (with the blob) survives.
    killed, __, ___ = launch(until_ms=(KILL_TICK + 4) * TICK_MS)
    store = killed.dyconits.state_store
    assert killed.dyconits._due_at  # backlogs pending at the kill
    del killed

    resumed, resumed_logs = resume(store, baseline_logs, tape)

    assert resumed.tick_count == baseline.tick_count
    for client_id, baseline_log in baseline_logs.items():
        resumed_log = resumed_logs[client_id]
        assert len(resumed_log) > 200
        assert resumed_log == baseline_log[-len(resumed_log):], (
            f"client {client_id} diverged after the resume"
        )
    assert resumed.dyconits.policy.factor_history == policy.factor_history
    baseline.close()
    resumed.close()


def test_audited_direct_mode_fanout_equals_the_per_session_scan(scan_fanout):
    indexed, indexed_logs, __ = launch(until_ms=END_MS, direct_mode=True)
    with scan_fanout():
        scanned, scanned_logs, __ = launch(until_ms=END_MS, direct_mode=True)
    for server in (indexed, scanned):
        server.audit_now()
        assert server.transport._fifo_last  # FIFO checked on every delivery
    assert len(indexed_logs) == BOTS
    assert sum(len(log) for log in indexed_logs.values()) > 20_000
    for client_id, log in indexed_logs.items():
        assert log == scanned_logs[client_id], f"client {client_id} diverged"
    assert indexed.transport.bytes_by_kind() == scanned.transport.bytes_by_kind()
    assert indexed.messages_sent == scanned.messages_sent
