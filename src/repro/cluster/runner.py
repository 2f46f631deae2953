"""S18: the shard-parallel tick runtime.

:class:`ParallelShardRunner` presents the exact :class:`ShardedCluster`
facade, but each shard lives in a persistent **worker process** and runs
its simulate+commit tick phase there, inside one wall-clock tick. The
parent simulation keeps the event clock, the bots, and the bus; workers
keep the worlds, the dyconit systems, and the transports. The two halves
meet at the same post-tick pump barrier the serial cluster already has.

Determinism argument (why parallel N-shard ≡ serial N-shard, byte for
byte):

* Shard ticks scheduled at the same instant are mutually independent in
  the serial cluster: bus messages are deferred to the pump, and packet
  delivery (synchronous mode) only reaches bot handlers, which never
  read server state or schedule events. So running them concurrently
  and merging outputs **in fixed shard-id order** replays the exact
  serial insertion sequence.
* All cross-shard traffic still flows through the parent's
  :class:`InterShardBus`: workers *record* their posts, the parent
  re-posts them, and per-edge FIFO order is preserved because an edge's
  source is the only shard that ever posts on it.
* Every worker owns a private RNG universe derived from the same seed
  the serial shard would use, a private simulation clock advanced to
  the parent's event time before each command, and a **fresh telemetry
  hub** (a forked worker inheriting the parent's hub would double-count
  every counter; hubs are folded into the parent at :meth:`finalize`).

Per-tick inputs (buffered player actions, one bus round's part per
destination from :meth:`InterShardBus.rounds`, which the worker applies
as one unit through :meth:`ShardServer.deliver_round`, exactly as the
serial pump does) and outputs (flushed packet batches, recorded posts,
world deltas) cross the pipe as plain picklable data. Client packets
travel as the packet objects themselves: every packet, world event,
shard message and :class:`Bounds` pickles on the pipe by constructor
(``(cls, field values)``, registered on multiprocessing's
``ForkingPickler`` only, so checkpoint pickling is untouched), and a
packet shared by several clients pickles once per reply.

The barrier is pipelined (DESIGN.md S26): a reply's effects are merged
and the next bus round is shipped *before* the reply's client packets
are replayed, so the parent feeds the bots while the workers compute —
in every pump round, and at a tick for the pump's first round when the
pump is provably the next event at that instant. Every held packet is
replayed before the pump returns.

A worker failure surfaces as a parent-side exception carrying the
worker's traceback; a worker that died outright (its pipe broke) is a
``RuntimeError`` naming the shard, the command, the simulated time and
the exit code; invariant violations re-raise as
:class:`InvariantViolationError` with the shard prefix the serial
auditor would have used.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import operator
import traceback
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from types import SimpleNamespace

from repro.cluster import messages as messages_module
from repro.cluster.bus import by_destination
from repro.cluster.facade import ShardedCluster
from repro.cluster.router import ShardRouter
from repro.cluster.shard import ShardServer, build_shard
from repro.core.bounds import Bounds
from repro.core.invariants import InvariantAuditor, InvariantViolationError, Violation
from repro.net import protocol as protocol_module
from repro.net.transport import DeliveredPacket
from repro.server import engine as engine_module
from repro.server.config import TICK_INTERVAL_MS, ServerConfig
from repro.sim.simulator import Simulation
from repro.telemetry.hub import Telemetry, set_telemetry
from repro.world import events as events_module
from repro.world.entity import Entity, EntityKind
from repro.world.events import BlockChangeEvent
from repro.world.geometry import Vec3
from repro.world.world import World


def _constructor_reducer(cls: type):
    """A ``ForkingPickler`` reducer shipping *cls* as ``(cls, field
    values)``: dumping reads the fields with one C ``attrgetter`` and
    loading calls the constructor, where pickle's default for a slotted
    dataclass calls ``dataclasses.fields()`` once per object on each
    side."""
    params = cls.__dataclass_params__
    fields = dataclasses.fields(cls)
    if not (params.frozen and "__slots__" in vars(cls)) or not all(
        f.init for f in fields
    ):
        raise TypeError(
            f"{cls.__qualname__} must be a frozen slotted dataclass whose "
            "fields are all init fields to pickle by constructor"
        )
    if not fields:
        return lambda obj: (cls, ())
    values = operator.attrgetter(*(f.name for f in fields))
    if len(fields) == 1:
        return lambda obj: (cls, (values(obj),))
    return lambda obj: (cls, values(obj))


#: The value types that cross the pipe: every dataclass defined in the
#: packet, world-event and shard-message modules (the world events are
#: also the bus's records), the bounds a peer subscription carries, and
#: the violations an audit reports.
_PIPE_VALUE_TYPES = (
    *(
        obj
        for module in (protocol_module, events_module, messages_module)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    ),
    Bounds,
    Violation,
)
for _cls in _PIPE_VALUE_TYPES:
    ForkingPickler.register(_cls, _constructor_reducer(_cls))


@dataclass
class _WorkerSpec:
    """Everything a worker needs to rebuild its shard from scratch.

    Must stay picklable under the ``spawn`` start method: factories must
    be module-level callables or bound methods of picklable objects.
    """

    shard_id: int
    router: ShardRouter
    config: ServerConfig
    policy_factory: object
    partitioner_factory: object
    telemetry_enabled: bool
    #: Parent-side :data:`engine.AUDIT_DEFAULT_EVERY_N_TICKS` at spawn
    #: time (checked mode is often enabled via that module global, which
    #: a spawned child would not inherit).
    audit_default_every_n_ticks: int


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _OutputCollector:
    """Accumulates one command's observable effects for shipping."""

    def __init__(self) -> None:
        self.packets: list = []
        self.posts: list = []
        self.events: list = []
        self.blocks: list = []

    def handler_for(self, client_id: int):
        """A transport handler recording deliveries in arrival order."""

        def handler(delivered: DeliveredPacket) -> None:
            self.packets.append(
                (client_id, delivered.packet, delivered.sent_at, delivered.delivered_at)
            )

        return handler

    def on_world_event(self, event) -> None:
        # Terrain is the only world state the parent mirror tracks
        # incrementally; entities ship as full snapshots per command.
        if isinstance(event, BlockChangeEvent):
            self.blocks.append(event)

    def drain(self, shard: ShardServer) -> dict:
        out = {
            "packets": self.packets,
            "posts": self.posts,
            "events": self.events,
            "blocks": self.blocks,
            "entities": tuple(
                (
                    entity.entity_id,
                    entity.kind.value,
                    entity.position.x,
                    entity.position.y,
                    entity.position.z,
                    entity.yaw,
                    entity.pitch,
                    entity.name,
                )
                for entity in shard.world.entities()
            ),
            "ghosts": tuple(sorted(shard.ghost_ids)),
        }
        self.packets, self.posts, self.events, self.blocks = [], [], [], []
        return out


class _RecordingBus:
    """Worker-side bus stand-in: posts are recorded, never delivered.

    The parent re-posts them on the real :class:`InterShardBus`, where
    they get their authoritative per-edge sequence numbers. FIFO order
    survives because this worker is the only source for its edges and
    the recorded list preserves post order.
    """

    def __init__(self, out: _OutputCollector) -> None:
        self._out = out

    def attach(self, shard_id: int) -> None:
        pass

    def post(self, src: int, dst: int, message) -> None:
        self._out.posts.append((dst, message))


class _WorkerClusterStub:
    """The slice of the facade a shard calls back, running worker-side.

    Handoff bookkeeping is authoritative in the *parent*; the stub
    records the callbacks as events for barrier-time replay. Profiles
    arrive staged with the round, as the serial facade stages them.
    """

    def __init__(self, out: _OutputCollector, shard: ShardServer) -> None:
        self._out = out
        self.shard = shard

    def on_handoff_started(self, client_id: int, src: int, dst: int) -> None:
        self._out.events.append(("handoff_started", client_id, src, dst))

    def on_handoff_completed(self, client_id: int, shard_id: int) -> None:
        session = self.shard.sessions[client_id]
        self._out.events.append(
            ("handoff_completed", client_id, shard_id, session.entity_id, session.name)
        )


def _handle_command(shard, sim, out, spec, hub, cmd, payload):
    if cmd == "start":
        shard.start(schedule_ticks=False)
        shard.ensure_peers(spec.router.shards)
        return out.drain(shard)
    if cmd == "connect":
        sim.clock.advance_to(payload["time"])
        x, y, z = payload["position"]
        session = shard.connect(
            payload["name"],
            out.handler_for(payload["client_id"]),
            position=Vec3(x, y, z),
            client_id=payload["client_id"],
        )
        result = out.drain(shard)
        result["session"] = (session.client_id, session.entity_id, session.name)
        return result
    if cmd == "disconnect":
        sim.clock.advance_to(payload["time"])
        shard.disconnect(payload["client_id"])
        return out.drain(shard)
    if cmd == "tick":
        sim.clock.advance_to(payload["time"])
        for client_id, action in payload["actions"]:
            shard.submit_action(client_id, action)
        duration = shard.tick_once()
        result = out.drain(shard)
        result["duration"] = duration
        return result
    if cmd == "pump":
        sim.clock.advance_to(payload["time"])
        for client_id, profile in payload["profiles"].items():
            shard.stage_handoff(
                client_id,
                dataclasses.replace(profile, handler=out.handler_for(client_id)),
            )
        shard.deliver_round(payload["segment"])
        return out.drain(shard)
    if cmd == "audit":
        report = InvariantAuditor().shard_report(shard)
        result = out.drain(shard)
        result.update(
            report=report,
            remote_interest=shard.remote_interest,
            peer_registry=shard.peer_registry,
        )
        return result
    if cmd == "finalize":
        sim.clock.advance_to(payload["time"])
        transport = shard.transport
        result = out.drain(shard)
        result.update(
            transport={
                "total_bytes": transport.total_bytes(),
                "total_packets": transport.total_packets(),
                "bytes_by_kind": transport.bytes_by_kind(),
                "packets_by_kind": transport.packets_by_kind(),
                "latencies_ms": list(transport.latencies_ms),
                "latency_sample_count": transport.latency_sample_count,
                "packets_dropped": transport.packets_dropped,
                "reconnect_count": transport.reconnect_count,
                "fifo_violations": list(transport.fifo_violations),
            },
            metrics=shard.metrics,
            dyconit_stats=shard.dyconits.stats,
            loaded_chunk_count=shard.world.loaded_chunk_count,
            counters={
                "handoffs_in": shard.handoffs_in,
                "handoffs_out": shard.handoffs_out,
                "transfers_in": shard.transfers_in,
                "transfers_out": shard.transfers_out,
                "messages_sent": shard.messages_sent,
                "tick_count": shard.tick_count,
                "smoothed_tick_ms": shard.smoothed_tick_ms,
            },
            telemetry=(
                {
                    "counters": [
                        (name, labels, counter.value)
                        for (name, labels), counter in hub.counters().items()
                    ],
                    "gauges": [
                        (name, labels, gauge.value)
                        for (name, labels), gauge in hub.gauges().items()
                    ],
                    "histograms": [
                        (name, labels, histogram)
                        for (name, labels), histogram in hub.histograms().items()
                    ],
                }
                if spec.telemetry_enabled
                else None
            ),
        )
        return result
    raise ValueError(f"unknown worker command {cmd!r}")


def _shard_worker_main(spec: _WorkerSpec, conn) -> None:
    """Entry point of one shard worker process (spawn-safe: module
    level, rebuilds everything from the picklable spec)."""
    # Fresh hub first: under fork the child inherits the parent's
    # ambient hub object and every increment would double-count once
    # the hubs are folded at the barrier.
    hub = Telemetry(enabled=spec.telemetry_enabled)
    set_telemetry(hub)
    engine_module.AUDIT_DEFAULT_EVERY_N_TICKS = spec.audit_default_every_n_ticks

    sim = Simulation()
    out = _OutputCollector()
    shard = build_shard(
        sim,
        spec.shard_id,
        spec.router,
        _RecordingBus(out),
        spec.config,
        spec.policy_factory,
        spec.partitioner_factory,
        telemetry=hub,
    )
    shard.cluster = _WorkerClusterStub(out, shard)
    shard.world.add_listener(out.on_world_event)

    try:
        while True:
            try:
                cmd, payload = conn.recv()
            except EOFError:
                break
            if cmd == "exit":
                break
            try:
                result = _handle_command(shard, sim, out, spec, hub, cmd, payload)
            except InvariantViolationError as error:
                conn.send(("invariant", error.violations))
            except Exception:
                conn.send(("error", traceback.format_exc()))
            else:
                conn.send(("ok", result))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _MirrorWorld:
    """Parent-side read model of a worker's world.

    Terrain is a real :class:`World` (same seed: block-aware surface
    queries answer identically) kept current by replaying block deltas;
    entities and ghosts follow per-command snapshots, in worker iteration
    order (entities are moved in place while the id sequence holds and
    rebuilt when it changes), so facade reads between barriers see
    exactly what the serial shard world would hold.
    """

    #: The worker world's count, shipped at finalize: the terrain mirror
    #: only loads the chunks parent-side queries touch.
    loaded_chunk_count: int | None = None

    def __init__(self, seed: int, entity_id_start: int, entity_id_step: int) -> None:
        self._terrain = World(
            seed=seed,
            entity_id_start=entity_id_start,
            entity_id_step=entity_id_step,
        )
        self._entities: dict[int, Entity] = {}

    def get_entity(self, entity_id: int) -> Entity | None:
        return self._entities.get(entity_id)

    def entities(self):
        return list(self._entities.values())

    @property
    def entity_count(self) -> int:
        return len(self._entities)

    def apply_blocks(self, blocks) -> None:
        for event in blocks:
            self._terrain.set_block(event.pos, event.new_block)

    def apply_entities(self, snapshot) -> None:
        entities = self._entities
        if len(snapshot) == len(entities) and all(
            row[0] == entity_id for row, entity_id in zip(snapshot, entities)
        ):
            # The steady state: the same entities in the same order, so
            # move the held ones (an id's kind and name never change).
            for (__, __, x, y, z, yaw, pitch, __), entity in zip(
                snapshot, entities.values()
            ):
                entity.position = Vec3(x, y, z)
                entity.yaw = yaw
                entity.pitch = pitch
            return
        self._entities = {
            entity_id: Entity(
                entity_id=entity_id,
                kind=EntityKind(kind_value),
                position=Vec3(x, y, z),
                yaw=yaw,
                pitch=pitch,
                name=name,
            )
            for entity_id, kind_value, x, y, z, yaw, pitch, name in snapshot
        }

    def __getattr__(self, name):
        # Terrain queries (surface_height, surface_position, get_block,
        # chunk access) delegate to the seed-identical local world.
        return getattr(self._terrain, name)


@dataclass
class _HandleSession:
    """Facade-visible view of a session living in a worker."""

    client_id: int
    entity_id: int
    name: str


class _TransportSnapshot:
    """Final transport accounting shipped from a worker.

    Quacks like :class:`~repro.net.transport.Transport` for every
    aggregate the experiment collector and the facade read; zeros until
    :meth:`ParallelShardRunner.finalize` installs real numbers.
    """

    def __init__(self, data: dict | None = None) -> None:
        data = data or {}
        self._total_bytes = data.get("total_bytes", 0)
        self._total_packets = data.get("total_packets", 0)
        self._bytes_by_kind = data.get("bytes_by_kind", {})
        self._packets_by_kind = data.get("packets_by_kind", {})
        self.latencies_ms = data.get("latencies_ms", [])
        self.latency_sample_count = data.get("latency_sample_count", 0)
        self.packets_dropped = data.get("packets_dropped", 0)
        self.reconnect_count = data.get("reconnect_count", 0)
        self.fifo_violations = data.get("fifo_violations", [])

    def total_bytes(self) -> int:
        return self._total_bytes

    def total_packets(self) -> int:
        return self._total_packets

    def bytes_by_kind(self) -> dict[str, int]:
        return dict(self._bytes_by_kind)

    def packets_by_kind(self) -> dict[str, int]:
        return dict(self._packets_by_kind)


class _ShardHandle:
    """Parent-side stand-in for one worker shard.

    Exposes the :class:`ShardServer` attributes the facade, the world
    view, and the cluster auditor read — backed by barrier-synced
    mirrors instead of live structures — and owns the shard's tick
    event, which the parent schedules.
    """

    def __init__(self, runner, shard_id, process, conn) -> None:
        self._runner = runner
        self.shard_id = shard_id
        self._process = process
        self._conn = conn
        #: The command most recently sent (named when the worker dies).
        self._command: str | None = None
        self.world = _MirrorWorld(runner.config.seed, shard_id + 1, runner.router.shards)
        self.ghost_ids: set[int] = set()
        self.sessions: dict[int, _HandleSession] = {}
        self.remote_interest: dict = {}
        self.peer_registry: dict = {}
        #: The worker's final ``DyconitStats``, as ``.stats``, from finalize.
        self.dyconits = None
        self.transport = _TransportSnapshot()
        self.metrics = None
        self._pending_actions: list = []
        #: Profiles staged for the next round shipped here, handlerless.
        self._staged_profiles: dict = {}
        self.next_tick_time = 0.0
        self.tick_event = None
        self.handoffs_in = 0
        self.handoffs_out = 0
        self.transfers_in = 0
        self.transfers_out = 0
        self.messages_sent = 0
        self.tick_count = 0
        self.smoothed_tick_ms = 0.0

    def schedule_tick(self, delay: float) -> None:
        sim = self._runner.sim
        self.next_tick_time = sim.now + delay
        self.tick_event = sim.schedule(
            delay, functools.partial(self._runner._shard_tick, self.shard_id)
        )

    def stop(self) -> None:
        if self.tick_event is not None:
            self.tick_event.cancel()
            self.tick_event = None

    def close(self) -> None:
        """Shut the worker down (idempotent; a worker that already died
        is just reaped)."""
        try:
            self._conn.send(("exit", None))
        except OSError:
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=10)
        self._conn.close()

    # -- RPC plumbing --------------------------------------------------

    def _send(self, cmd: str, payload) -> None:
        self._command = cmd
        try:
            self._conn.send((cmd, payload))
        except (BrokenPipeError, ConnectionResetError) as error:
            raise self._worker_gone("sending") from error

    def _recv(self):
        try:
            status, payload = self._conn.recv()
        except (EOFError, ConnectionResetError) as error:
            raise self._worker_gone("awaiting the reply to") from error
        if status == "invariant":
            raise InvariantViolationError(
                [
                    Violation(v.invariant, f"shard {self.shard_id}: {v.subject}", v.message)
                    for v in payload
                ]
            )
        if status == "error":
            raise RuntimeError(
                f"shard {self.shard_id} worker failed:\n{payload}"
            )
        return payload

    def _worker_gone(self, doing: str) -> RuntimeError:
        """A diagnosed stop for a worker whose pipe broke: which shard,
        which command, when, and how the process ended."""
        self._process.join(timeout=1.0)
        return RuntimeError(
            f"shard {self.shard_id} worker is gone ({doing} {self._command!r} "
            f"at simulated time {self._runner.sim.now} ms; "
            f"exit code {self._process.exitcode})"
        )

    def _rpc(self, cmd: str, payload):
        self._send(cmd, payload)
        return self._recv()

    # -- Facade-facing shard API ---------------------------------------

    def connect(self, name, handler, position=None, client_id=None) -> _HandleSession:
        self._runner._client_handlers[client_id] = handler
        out = self._rpc(
            "connect",
            {
                "time": self._runner.sim.now,
                "client_id": client_id,
                "name": name,
                "position": (position.x, position.y, position.z),
            },
        )
        session = _HandleSession(*out.pop("session"))
        self.sessions[session.client_id] = session
        self._runner._apply_output(self, out)
        return session

    def disconnect(self, client_id: int) -> None:
        out = self._rpc(
            "disconnect", {"time": self._runner.sim.now, "client_id": client_id}
        )
        self.sessions.pop(client_id, None)
        self._runner._apply_output(self, out)
        self._runner._client_handlers.pop(client_id, None)

    def submit_action(self, client_id: int, action) -> None:
        # Serial shards only look at the inbound queue at the top of a
        # tick; buffering until the next tick RPC is order-equivalent.
        self._pending_actions.append((client_id, action))

    def stage_handoff(self, client_id: int, profile) -> None:
        # Ships with the next round; the worker attaches its handler.
        self._staged_profiles[client_id] = dataclasses.replace(profile, handler=None)


class ParallelShardRunner(ShardedCluster):
    """A :class:`ShardedCluster` whose shards tick in worker processes.

    Drop-in facade: ``connect`` / ``disconnect`` / ``submit_action`` /
    ``sessions`` / ``world`` / ``audit_now`` behave identically, and an
    N-shard parallel run produces byte-identical packet streams to the
    serial N-shard cluster. Call :meth:`finalize` after the simulation
    ends to pull final transports/metrics/telemetry out of the workers
    and shut them down; :meth:`close` shuts them down without.
    """

    def __init__(
        self,
        sim: Simulation,
        shards: int = 2,
        strip_width: int = 4,
        config: ServerConfig | None = None,
        policy_factory=None,
        partitioner_factory=None,
        telemetry: Telemetry | None = None,
        mp_context: str | None = None,
    ) -> None:
        if policy_factory is None:
            raise ValueError("the parallel runner needs a policy_factory")
        config = config if config is not None else ServerConfig()
        if not config.synchronous_delivery:
            raise ValueError(
                "parallel shard ticks require synchronous_delivery: a "
                "scheduled delivery would land in the parent's event queue "
                "while the packet lives in a worker"
            )
        self._mp = multiprocessing.get_context(mp_context)
        self._client_handlers: dict[int, object] = {}
        #: A pump whose first round left before its event fired (see
        #: _shard_tick): (the bus drain, destinations awaiting replies).
        self._in_flight: tuple | None = None
        #: Bus messages shipped by the pump under way.
        self._pump_messages = 0
        self._finalized = False
        super().__init__(
            sim,
            shards=shards,
            strip_width=strip_width,
            config=config,
            policy_factory=policy_factory,
            partitioner_factory=partitioner_factory,
            telemetry=telemetry,
        )

    def _build_shards(self, policy_factory, partitioner_factory, state_stores) -> list:
        """One worker process per shard, rebuilding it from a spec."""
        handles = []
        for shard_id in range(self.router.shards):
            self.bus.attach(shard_id)
            spec = _WorkerSpec(
                shard_id=shard_id,
                router=self.router,
                config=self.config,
                policy_factory=policy_factory,
                partitioner_factory=partitioner_factory,
                telemetry_enabled=self.telemetry.enabled,
                audit_default_every_n_ticks=engine_module.AUDIT_DEFAULT_EVERY_N_TICKS,
            )
            parent_conn, child_conn = self._mp.Pipe()
            process = self._mp.Process(
                target=_shard_worker_main,
                args=(spec, child_conn),
                daemon=True,
                name=f"shard-worker-{shard_id}",
            )
            process.start()
            child_conn.close()
            handles.append(_ShardHandle(self, shard_id, process, parent_conn))
        return handles

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            raise RuntimeError("cluster already started")
        self._running = True
        for handle in self.shards:
            handle._send("start", {"time": self.sim.now})
        for handle in self.shards:
            self._apply_output(handle, handle._recv())
        # Same event-insertion order as the serial cluster: shard ticks
        # 0..N-1, then the pump barrier.
        for handle in self.shards:
            handle.schedule_tick(TICK_INTERVAL_MS)
        self._pump_event = self.sim.schedule(TICK_INTERVAL_MS, self._pump)

    def finalize(self) -> None:
        """Pull final transports/metrics/stats/telemetry from the
        workers, fold them into the parent, and shut the workers down.

        Call after ``sim.run_until`` returns and before reading
        aggregate results; idempotent."""
        if self._finalized:
            return
        self._finalized = True
        for handle in self.shards:
            handle._send("finalize", {"time": self.sim.now})
        payloads = [handle._recv() for handle in self.shards]
        for handle, payload in zip(self.shards, payloads):
            self._apply_output(handle, payload)
            handle.transport = _TransportSnapshot(payload["transport"])
            handle.metrics = payload["metrics"]
            handle.dyconits = SimpleNamespace(stats=payload["dyconit_stats"])
            handle.world.loaded_chunk_count = payload["loaded_chunk_count"]
            for name, value in payload["counters"].items():
                setattr(handle, name, value)
            if payload["telemetry"] is not None and self.telemetry.enabled:
                self._fold_telemetry(payload["telemetry"])
        self.close()

    def _fold_telemetry(self, dump: dict) -> None:
        # Counters add, histograms merge (both commutative, so serial
        # and parallel totals agree); gauges are last-write samples and
        # folding in shard order keeps them deterministic.
        for name, labels, value in dump["counters"]:
            self.telemetry.counter(name, **dict(labels)).increment(value)
        for name, labels, value in dump["gauges"]:
            self.telemetry.gauge(name, **dict(labels)).set(value)
        for name, labels, histogram in dump["histograms"]:
            self.telemetry.histogram(
                name, min_value=histogram.min_value, **dict(labels)
            ).merge(histogram)

    # ------------------------------------------------------------------
    # Tick phase
    # ------------------------------------------------------------------

    def _shard_tick(self, shard_id: int) -> None:
        if not self._running:
            return
        now = self.sim.now
        # Every shard whose next tick lands at this exact instant joins
        # the batch: dispatch all tick RPCs first (the workers compute
        # concurrently), then merge outputs in fixed shard-id order so
        # the parent-side effects replay the serial insertion sequence.
        # Shards that drifted out of phase (duration > interval) tick
        # alone at their own events, exactly like the serial loop.
        due = [handle for handle in self.shards if handle.next_tick_time == now]
        for handle in due:
            if handle.shard_id != shard_id and handle.tick_event is not None:
                handle.tick_event.cancel()
            actions, handle._pending_actions = handle._pending_actions, []
            handle._send("tick", {"time": now, "actions": actions})
        # Relay before replay: when the pump barrier is the very next
        # event at this instant, nothing can run between this tick and
        # it, so the pump's first round leaves as soon as this tick's
        # posts are on the bus, and this tick's packets reach their
        # handlers while the workers compute that round. Otherwise (a
        # drifted shard, an event scheduled in between) packets replay
        # on receipt.
        pre_ship = self._pump_is_next(now)
        held = []
        for handle in due:
            out = handle._recv()
            self._apply_effects(handle, out)
            if pre_ship:
                held.append(out["packets"])
            else:
                self._replay(out["packets"])
            handle.schedule_tick(max(TICK_INTERVAL_MS, out["duration"]))
        if pre_ship:
            rounds = self.bus.rounds()
            self._in_flight = (rounds, self._ship_round(rounds))
            self._replay(*held)

    def _pump_is_next(self, now: float) -> bool:
        event = self.sim.next_event()
        return event is not None and event is self._pump_event and event.time == now

    # ------------------------------------------------------------------
    # Pump barrier
    # ------------------------------------------------------------------

    def _relay_bus(self) -> int:
        """Relay the bus to empty through the workers, round by round;
        returns the messages shipped."""
        if self._in_flight is None:
            rounds = self.bus.rounds()
            shipped = self._ship_round(rounds)
        else:
            (rounds, shipped), self._in_flight = self._in_flight, None
        held: list = []
        try:
            while shipped:
                # Relay before replay: a round's effects go on the bus and
                # the next round leaves before its packets are replayed,
                # which happens while the workers compute that next round.
                # A client's packets in one command come from one shard,
                # and stashes replay in command order: per-client order
                # is the per-message path's.
                replay, held = held, []
                self._replay(*replay)
                for dst in shipped:
                    out = self.shards[dst]._recv()
                    self._apply_effects(self.shards[dst], out)
                    held.append(out["packets"])
                shipped = self._ship_round(rounds)
        finally:
            self._replay(*held)
        delivered, self._pump_messages = self._pump_messages, 0
        return delivered

    def _ship_round(self, rounds) -> list[int]:
        """Take the drain's next round and send each destination its
        part; returns the destinations now computing, ascending (empty
        once the bus is drained)."""
        round_batches = next(rounds, None)
        if round_batches is None:
            return []
        self._pump_messages += sum(len(messages) for __, messages in round_batches)
        self._stage_handoffs(round_batches)
        # Destinations compute concurrently: their in-flight effects are
        # disjoint (own world, own sessions, own outgoing edges).
        shipped = []
        for dst, segment in by_destination(round_batches):
            handle = self.shards[dst]
            profiles, handle._staged_profiles = handle._staged_profiles, {}
            handle._send(
                "pump", {"time": self.sim.now, "segment": segment, "profiles": profiles}
            )
            shipped.append(dst)
        return shipped

    # ------------------------------------------------------------------
    # Output merge
    # ------------------------------------------------------------------

    def _apply_output(self, handle: _ShardHandle, out: dict) -> None:
        """Merge one worker command's effects, then replay its packets."""
        self._apply_effects(handle, out)
        self._replay(out["packets"])

    def _apply_effects(self, handle: _ShardHandle, out: dict) -> None:
        """Merge everything of one worker command but its client packets:
        mirror terrain and entities, ghosts, handoff events, bus posts."""
        handle.world.apply_blocks(out["blocks"])
        handle.world.apply_entities(out["entities"])
        handle.ghost_ids = set(out["ghosts"])
        for event in out["events"]:
            if event[0] == "handoff_started":
                __, client_id, src, dst = event
                handle.sessions.pop(client_id, None)
                handle.handoffs_out += 1
                self.on_handoff_started(client_id, src, dst)
            else:  # handoff_completed
                __, client_id, shard_id, entity_id, name = event
                handle.sessions[client_id] = _HandleSession(client_id, entity_id, name)
                handle.handoffs_in += 1
                self.on_handoff_completed(client_id, shard_id)
        for dst, message in out["posts"]:
            self.bus.post(handle.shard_id, dst, message)

    def _replay(self, *stashes) -> None:
        """Hand held worker packets to the client handlers, stash by
        stash in command order.

        Replay timing cannot disturb determinism: bot handlers mutate
        only client-side state and never read server state or schedule
        events, so what matters — per-client FIFO and the shard-order
        interleave of bus posts — holds however late in the barrier the
        packets land, as long as it is before the next event.
        """
        handlers = self._client_handlers
        new = tuple.__new__
        for packets in stashes:
            for client_id, packet, sent_at, delivered_at in packets:
                handler = handlers.get(client_id)
                if handler is None:
                    continue
                handler(new(DeliveredPacket, (packet, sent_at, delivered_at)))

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def _shard_reports(self) -> list:
        """Each worker's half of the audit, taken on its live shard; the
        reply also syncs the handle's interest registries, which the
        cross-shard pairs read."""
        for handle in self.shards:
            handle._send("audit", {"time": self.sim.now})
        reports = []
        for handle in self.shards:
            out = handle._recv()
            self._apply_output(handle, out)
            handle.remote_interest = out["remote_interest"]
            handle.peer_registry = out["peer_registry"]
            reports.append(out["report"])
        return reports
