"""Stateful fuzzing of the middleware against the invariant auditor.

Two hypothesis state machines:

* :class:`DyconitMachine` drives random interleavings of
  commit / subscribe / unsubscribe / set_bounds / merge / split / tick
  against a :class:`DyconitSystem`, and after **every** step checks

  - the full :class:`InvariantAuditor` catalogue (I1–I4), and
  - a naive reference model that mirrors each subscription queue's
    contents and its *exact* accumulated error (same float additions in
    the same order), so ``accumulated_error ≡ sum of committed weights
    since the last drain`` is checked to the last bit;

  plus, after every tick, that no backlog is past its staleness bound
  (the behavioural consequence of a lost deadline).

* :class:`ElasticRateMachine` drives commit bursts and policy
  evaluations through merge/split cycles and checks the elastic policy's
  per-window commit rates against an independent count of the commits
  actually made in the window.

* :class:`ClusterMachine` (S16) drives a live 2-shard cluster — churny
  connects/disconnects, entity strides that cross the shard border, and
  real simulation time — and checks the full cluster catalogue
  (per-shard I1–I6 plus cross-shard I7/I8) after every step. Handoffs,
  mob transfers and interest subscribe/unsubscribe storms all happen
  "for real" through the bus.

On the unfixed tree these machines reproduce the S15 repartitioning
bugs: the merge/re-subscribe deadline bugs surface as ``I3.heap-coverage``
violations (and overdue backlogs surviving ticks), and the baseline
accounting bug surfaces as a merged region reporting its entire commit
history as one window of traffic.
"""

import math

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cluster import ShardedCluster
from repro.core.bounds import Bounds
from repro.core.invariants import InvariantAuditor
from repro.core.manager import DyconitSystem
from repro.core.partition import ChunkPartitioner
from repro.core.policy import LoadSignals
from repro.core.subscription import Subscriber
from repro.policies.elastic import ElasticPartitioningPolicy
from repro.policies.fixed import FixedBoundsPolicy
from repro.policies.zero import ZeroBoundsPolicy
from repro.server.config import ServerConfig
from repro.sim.simulator import Simulation
from repro.world.events import EntityMoveEvent
from repro.world.geometry import Vec3


def move(entity_id: int, time: float, dx: float) -> EntityMoveEvent:
    return EntityMoveEvent(time, entity_id, Vec3(0, 0, 0), Vec3(dx, 0, 0))


#: Two regions' worth of chunks under the region_size=4 merge targets.
REGIONS = ((0, 0), (1, 0))
CHUNKS = [("chunk", 0, 0), ("chunk", 1, 0), ("chunk", 4, 0), ("chunk", 5, 0)]

chunk_ids = st.sampled_from(CHUNKS)
subscriber_ids = st.integers(min_value=1, max_value=3)
bounds_strategy = st.sampled_from(
    [
        Bounds(5.0, 100.0),
        Bounds(50.0, 1000.0),
        Bounds(math.inf, 100.0),
        Bounds(math.inf, 5000.0),
        Bounds(math.inf, math.inf),
        Bounds(math.inf, math.inf, order=3),
        Bounds(2.0, math.inf),
    ]
)


class DyconitMachine(RuleBasedStateMachine):
    """Random middleware op interleavings vs auditor + reference model."""

    #: S19 backend seam — the spec handed to the StateStore registry.
    #: The default machine fuzzes the flat columnar commit path
    #: (including the I9 replay audit after every step). Twins below
    #: drive the same rules through the per-object ground truth and the
    #: SQLite adapter, so every observable (auditor catalogue, bit-exact
    #: reference model, staleness liveness) is enforced on the protocol
    #: surface rather than on any concrete class.
    STATE_STORE = "memory"

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.auditor = InvariantAuditor()
        self.system = DyconitSystem(
            FixedBoundsPolicy(Bounds(50.0, 1000.0)),
            ChunkPartitioner(),
            time_source=lambda: self.now,
            state_store=self.STATE_STORE,
        )
        self.subscribers: dict[int, Subscriber] = {}
        #: Reference model: (dyconit_id, subscriber_id) -> merge_key ->
        #: update, maintained with the same supersede-and-append
        #: semantics the middleware promises.
        self.queues: dict[tuple, dict] = {}
        #: Exact error mirror: same weights added in the same order.
        self.errors: dict[tuple, float] = {}

    # -- reference model plumbing --------------------------------------

    def _subscriber(self, sub_id: int) -> Subscriber:
        if sub_id not in self.subscribers:
            self.subscribers[sub_id] = Subscriber(
                subscriber_id=sub_id,
                deliver=lambda segments, sid=sub_id: self._on_deliver(sid, segments),
            )
        return self.subscribers[sub_id]

    def _on_deliver(self, sub_id, segments) -> None:
        for dyconit_id, updates in segments:
            key = (dyconit_id, sub_id)
            expected = list(self.queues.get(key, {}).values())
            assert list(updates) == expected, (
                f"flush for {key} delivered {len(updates)} updates, "
                f"reference model expected {len(expected)}"
            )
            self.queues.pop(key, None)
            self.errors.pop(key, None)

    def _model_drop(self, key) -> None:
        self.queues.pop(key, None)
        self.errors.pop(key, None)

    # -- rules ----------------------------------------------------------

    @rule(chunk=chunk_ids, sub_id=subscriber_ids,
          bounds=st.one_of(st.none(), bounds_strategy))
    def subscribe(self, chunk, sub_id, bounds):
        # A bounds change on an existing subscription may flush; the
        # delivery callback validates against the model, which needs no
        # pre-update (the queue itself is untouched by a re-subscribe).
        self.system.subscribe(chunk, self._subscriber(sub_id), bounds=bounds)

    @rule(chunk=chunk_ids, sub_id=subscriber_ids)
    def unsubscribe(self, chunk, sub_id):
        resolved = self.system.resolve(chunk)
        self.system.unsubscribe(chunk, sub_id)  # flushes pending via callback
        self._model_drop((resolved, sub_id))  # clears an empty leftover entry

    @rule(chunk=chunk_ids, entity=st.integers(min_value=1, max_value=5),
          dx=st.sampled_from([0.5, 1.0, 2.5]))
    def commit(self, chunk, entity, dx):
        resolved = self.system.resolve(chunk)
        update = move(entity, time=self.now, dx=dx)
        # Mirror the enqueue fan-out *before* committing: a tripped bound
        # flushes inside commit_to and the callback compares immediately.
        dyconit = self.system.get(resolved)
        if dyconit is not None:
            for state in dyconit.subscription_states():
                key = (resolved, state.subscriber.subscriber_id)
                queue = self.queues.setdefault(key, {})
                queue.pop(update.merge_key, None)  # supersede-and-append
                queue[update.merge_key] = update
                self.errors[key] = self.errors.get(key, 0.0) + update.weight
        self.system.commit_to(chunk, update)

    @rule(chunk=chunk_ids, sub_id=subscriber_ids, bounds=bounds_strategy)
    def set_bounds(self, chunk, sub_id, bounds):
        self.system.set_bounds(chunk, sub_id, bounds)  # may flush via callback

    @rule(sub_id=subscriber_ids, entity=st.integers(min_value=1, max_value=5),
          bounds=bounds_strategy, delta=st.sampled_from([0.0, 30.0, 150.0]))
    def retune_storm(self, sub_id, entity, bounds, delta):
        """commit, sweep ``set_bounds`` over every subscription of one
        subscriber, let time pass *without* a tick, commit again — what a
        policy retune does between two commits of a server tick. No audit
        runs in between, so on flat state the second commit is the one
        that must refresh the gates the sweep left dirty (a stale gate
        flushes late: the reference model and the overdue check catch
        it); on every state kind the sweep lowers the dyconits' due
        times under bounds the due pass has not seen yet."""
        chunks = self.system.subscription_ids_of(sub_id)
        if not chunks:
            return
        self.commit(chunks[0], entity, 1.0)
        for chunk in chunks:
            self.system.set_bounds(chunk, sub_id, bounds)
        self.now += delta
        self.commit(chunks[-1], entity, 0.5)
        self._assert_nothing_overdue(committed_to=self.system.resolve(chunks[-1]))

    def _assert_nothing_overdue(self, committed_to=None) -> None:
        """No backlog may be at or past its staleness bound — everywhere
        right after a tick, and on the dyconit a commit just went to
        (commits re-check every queue they touch)."""
        for dyconit in self.system.dyconits():
            if committed_to is not None and dyconit.dyconit_id != committed_to:
                continue
            for state in dyconit.subscription_states():
                if state.has_pending and not math.isinf(state.bounds.staleness_ms):
                    age = self.now - state.oldest_pending_time
                    assert age < state.bounds.staleness_ms, (
                        f"({dyconit.dyconit_id!r}, subscriber "
                        f"{state.subscriber.subscriber_id}) is {age:g} ms stale, "
                        f"bound {state.bounds.staleness_ms:g} ms"
                    )

    @rule(region_index=st.sampled_from([0, 1]))
    def merge_region(self, region_index):
        region = REGIONS[region_index]
        members = [c for c in CHUNKS if (c[1] // 4, c[2] // 4) == region]
        target = ("region", 4, *region)
        resolved_target = self.system.resolve(target)
        resolved_members = []
        for member in members:
            resolved = self.system.resolve(member)
            if resolved != resolved_target and resolved not in resolved_members:
                resolved_members.append(resolved)
        # Mirror the move *before* merging: per source, supersede-and-append
        # every update into the target queue (same order as the manager's
        # drain), then restore time order; the error mirror gains exactly
        # the moved survivors' weights, matching the real re-enqueue. A
        # merged queue over its bounds flushes inside the merge, and the
        # delivery callback compares it against the merged model queue.
        for source in resolved_members:
            for (dyconit_id, sub_id), queue in list(self.queues.items()):
                if dyconit_id != source or not queue:
                    continue
                target_key = (resolved_target, sub_id)
                target_queue = self.queues.setdefault(target_key, {})
                error = self.errors.get(target_key, 0.0)
                for merge_key, update in queue.items():
                    target_queue.pop(merge_key, None)
                    target_queue[merge_key] = update
                    error += update.weight
                self.errors[target_key] = error
                items = sorted(target_queue.items(), key=lambda kv: kv[1].time)
                target_queue.clear()
                target_queue.update(items)
                self._model_drop((source, sub_id))
        self.system.merge_dyconits(members, target)
        # The merge flushes every merged queue its backlog or tightened
        # bounds put over them, as set_bounds would: none is left over its
        # numerical or order bound to wait for the next commit or its
        # deadline (staleness is the due pass's: time passes between ticks).
        merged = self.system.get(resolved_target)
        for state in merged.subscription_states() if merged is not None else ():
            bounds = state.bounds
            over = state.accumulated_error > bounds.numerical or len(state.pending) > bounds.order
            assert not over, (
                f"merged queue of subscriber {state.subscriber.subscriber_id} "
                f"left over its bounds {bounds}"
            )

    @rule(region_index=st.sampled_from([0, 1]))
    def split_region(self, region_index):
        target = ("region", 4, *REGIONS[region_index])
        self.system.split_dyconit(target)  # flushes target backlog via callback
        for key in [k for k, q in self.queues.items() if k[0] == target and not q]:
            self._model_drop(key)

    @rule(delta=st.sampled_from([30.0, 150.0, 700.0]))
    def advance_and_tick(self, delta):
        self.now += delta
        self.system.tick()
        # Behavioural staleness check: after a tick nothing may still be
        # older than its staleness bound — a backlog that survives here
        # lost its due-time coverage (the merge/re-subscribe bugs).
        self._assert_nothing_overdue()

    # -- checked after every rule ---------------------------------------

    @invariant()
    def auditor_is_clean(self):
        violations = self.auditor.check(self.system)
        assert violations == [], "\n".join(str(v) for v in violations)

    @invariant()
    def middleware_matches_reference_model(self):
        live = {}
        for dyconit in self.system.dyconits():
            for state in dyconit.subscription_states():
                if state.has_pending:
                    live[(dyconit.dyconit_id, state.subscriber.subscriber_id)] = state
        model_keys = {key for key, queue in self.queues.items() if queue}
        assert set(live) == model_keys
        for key, state in live.items():
            assert list(state.pending.values()) == list(self.queues[key].values())
            # Exact: both sides added the same weights in the same order.
            assert state.accumulated_error == self.errors[key]


def signals(now: float) -> LoadSignals:
    return LoadSignals(
        now=now, player_count=4, last_tick_duration_ms=10.0,
        smoothed_tick_duration_ms=10.0, tick_budget_ms=50.0,
        outgoing_bytes_per_second=0.0,
    )


#: region_size=2: two regions of two chunks each.
ELASTIC_CHUNKS = [("chunk", 0, 0), ("chunk", 1, 0), ("chunk", 2, 0), ("chunk", 3, 0)]


class ElasticRateMachine(RuleBasedStateMachine):
    """Elastic policy commit-rate accounting across merge/split cycles."""

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.policy = ElasticPartitioningPolicy(
            inner=FixedBoundsPolicy(Bounds(1000.0, 60_000.0)),
            region_size=2,
            cold_commits_per_second=1.0,
            hot_commits_per_second=8.0,
        )
        self.system = DyconitSystem(
            self.policy, ChunkPartitioner(), time_source=lambda: self.now
        )
        sink = Subscriber(subscriber_id=1, deliver=lambda segments: None)
        for chunk in ELASTIC_CHUNKS:
            self.system.subscribe(chunk, sink)
        #: Commits this window, keyed by the id they resolved to at
        #: commit time — the ground truth the policy's rates must match.
        self.window_counts: dict = {}
        self.policy.evaluate(self.system, signals(0.0))  # baseline snapshot

    @rule(chunk=st.sampled_from(ELASTIC_CHUNKS), n=st.integers(min_value=1, max_value=10))
    def commit_burst(self, chunk, n):
        resolved = self.system.resolve(chunk)
        for i in range(n):
            self.system.commit_to(chunk, move(chunk[1], time=self.now, dx=1.0))
            self.window_counts[resolved] = self.window_counts.get(resolved, 0) + 1

    def _merged_regions(self) -> dict:
        regions: dict = {}
        for chunk in ELASTIC_CHUNKS:
            resolved = self.system.resolve(chunk)
            if resolved != chunk:
                regions.setdefault(resolved, []).append(chunk)
        return regions

    @rule(dt=st.sampled_from([500.0, 1000.0, 2000.0]))
    def advance_and_evaluate(self, dt):
        merged_before = self._merged_regions()
        self.now += dt
        self.policy.evaluate(self.system, signals(self.now))
        window_s = dt / 1000.0
        # Thrash check: a merged region that genuinely saw less than the
        # hot rate this window must stay merged. With the baseline bug, a
        # merged region's first evaluation counts its members' *entire*
        # commit history as one window of traffic and splits right back.
        for region, members in merged_before.items():
            actual_rate = self.window_counts.get(region, 0) / window_s
            if actual_rate < self.policy.hot_commits_per_second:
                for member in members:
                    assert self.system.resolve(member) == region, (
                        f"{region!r} saw only {actual_rate:g} commits/s this "
                        f"window (hot threshold "
                        f"{self.policy.hot_commits_per_second:g}) yet was split"
                    )
        # getattr: lets the behavioural check above carry the repro on
        # trees that predate the rate-introspection attribute.
        rates = getattr(self.policy, "last_window_rates", None)
        for dyconit_id, rate in (rates or {}).items():
            expected = self.window_counts.get(dyconit_id, 0) / window_s
            # A stale (uncarried) baseline also skews rates: whole-history
            # spikes after a merge, negative rates after a split.
            assert rate == pytest.approx(expected), (
                f"{dyconit_id!r}: policy saw {rate:g} commits/s this window, "
                f"but {expected:g}/s were actually committed"
            )
        self.window_counts.clear()


class ClusterMachine(RuleBasedStateMachine):
    """Random churn + border strides on a real 2-shard cluster (I7/I8).

    Every rule leaves the cluster at an arbitrary point of its
    simulation, including mid-handoff; the auditor's in-flight excusals
    must make the catalogue hold at *every* such point, not just the
    pump barrier.
    """

    MAX_CLIENTS = 5

    def __init__(self):
        super().__init__()
        self.sim = Simulation()
        self.auditor = InvariantAuditor()
        self.cluster = ShardedCluster(
            self.sim,
            shards=2,
            strip_width=2,
            config=ServerConfig(seed=11, synchronous_delivery=True, mob_count=2),
            policy_factory=ZeroBoundsPolicy,
        )
        self.cluster.start()
        self.names = 0

    def _live_clients(self) -> list:
        return sorted(self.cluster.sessions)

    @rule(x=st.sampled_from([-40.0, -12.0, 4.0, 12.0, 40.0]))
    def connect(self, x):
        if self.cluster.player_count >= self.MAX_CLIENTS:
            return
        self.names += 1
        position = self.cluster.world.surface_position(x, 8.0)
        self.cluster.connect(f"fuzz{self.names}", lambda delivered: None,
                             position=position)

    @rule(data=st.data())
    def disconnect(self, data):
        # Includes clients currently mid-handoff: the cancellation path.
        candidates = sorted(
            set(self._live_clients()) | set(self.cluster.in_transit_clients())
        )
        if not candidates:
            return
        self.cluster.disconnect(data.draw(st.sampled_from(candidates)))

    @rule(data=st.data(), dx=st.sampled_from([-33.0, -9.0, 9.0, 33.0]))
    def stride(self, data, dx):
        """Walk one authoritative entity sideways — the larger strides
        cross the 2-chunk strips and trigger handoffs/transfers."""
        owned = []
        for shard in self.cluster.shards:
            for entity in shard.world.entities():
                if entity.entity_id not in shard.ghost_ids:
                    owned.append((shard, entity.entity_id))
        if not owned:
            return
        shard, entity_id = owned[data.draw(st.integers(0, len(owned) - 1))]
        entity = shard.world.get_entity(entity_id)
        position = entity.position
        shard.world.move_entity(
            entity_id,
            Vec3(position.x + dx, position.y, position.z),
        )

    @rule(steps=st.integers(min_value=1, max_value=4))
    def advance(self, steps):
        self.sim.run_until(self.sim.now + 50.0 * steps)

    @invariant()
    def cluster_catalogue_is_clean(self):
        violations = self.auditor.check_cluster(self.cluster)
        assert violations == [], "\n".join(str(v) for v in violations)


#: CI smoke: 30 examples x up to 30 steps (and 15 x 25) comfortably
#: clears the >= 200 stateful steps the roadmap asks of checked mode.
class LegacyDyconitMachine(DyconitMachine):
    """Same rules against the per-object commit path (the
    ``"per-object"`` store :mod:`tests.conftest` registers)."""

    STATE_STORE = "per-object"


class SQLiteDyconitMachine(DyconitMachine):
    """Same rules with every queue resident in SQLite (S19).

    The SQLite handles answer the manager's batched calls over rows
    (S25) — exactly how a real server configured with
    ``state_store="sqlite"`` runs. The
    bit-exact reference model makes this a float-for-float conformance
    fuzz of the adapter's accounting.
    """

    STATE_STORE = "sqlite"


TestDyconitFuzz = DyconitMachine.TestCase
TestDyconitFuzz.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)

TestLegacyDyconitFuzz = LegacyDyconitMachine.TestCase
TestLegacyDyconitFuzz.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)

TestSQLiteDyconitFuzz = SQLiteDyconitMachine.TestCase
TestSQLiteDyconitFuzz.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)

TestElasticRates = ElasticRateMachine.TestCase
TestElasticRates.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)

TestClusterFuzz = ClusterMachine.TestCase
TestClusterFuzz.settings = settings(
    max_examples=12, stateful_step_count=20, deadline=None
)
