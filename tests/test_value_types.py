"""The hot value types and the shard pipe's pickling contract (S28).

Geometry (:class:`Vec3`, :class:`BlockPos`, :class:`ChunkPos`) is a set
of ``typing.NamedTuple`` classes that must behave exactly like the
frozen dataclasses they replaced wherever the product can observe it:
the same hash (set and dict orders, hence every digest), the same repr
(``codec.py`` sorts block changes with ``key=str``), immutability, and
no tuple concatenation or repetition sneaking in through ``+``/``*``.
:class:`DeliveredPacket` (S30) keeps the same contract: the egress hot
loops build it with ``tuple.__new__``, and what the handlers receive
must be indistinguishable from a keyword-built one.

On the shard pipe, every frozen slotted dataclass that crosses it
pickles by constructor through multiprocessing's ``ForkingPickler`` —
and only there: ``copyreg`` stays untouched, so checkpoints pickle as
before.
"""

import copyreg
import dataclasses
import pickle
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
from repro.cluster import ParallelShardRunner
from repro.cluster.runner import _PIPE_VALUE_TYPES, _ShardHandle
from repro.core.bounds import Bounds
from repro.net.protocol import KeepAlivePacket, PlayerActionPacket
from repro.net.transport import DeliveredPacket
from repro.policies import FixedBoundsPolicy
from repro.server.config import ServerConfig
from repro.sim.simulator import Simulation
from repro.world.geometry import BlockPos, ChunkPos, Vec3

SAMPLES = [
    (Vec3(1.0, 2.0, 3.0), (1.0, 2.0, 3.0), "Vec3(x=1.0, y=2.0, z=3.0)"),
    (Vec3(-0.5, 64.0, 1e9), (-0.5, 64.0, 1e9), "Vec3(x=-0.5, y=64.0, z=1000000000.0)"),
    (BlockPos(1, 2, 3), (1, 2, 3), "BlockPos(x=1, y=2, z=3)"),
    (BlockPos(-17, 0, 40), (-17, 0, 40), "BlockPos(x=-17, y=0, z=40)"),
    (ChunkPos(4, -2), (4, -2), "ChunkPos(cx=4, cz=-2)"),
    (
        DeliveredPacket(KeepAlivePacket(nonce=3), 1.5, 21.75),
        (KeepAlivePacket(nonce=3), 1.5, 21.75),
        "DeliveredPacket(packet=KeepAlivePacket(nonce=3), sent_at=1.5, delivered_at=21.75)",
    ),
]
IDS = [repr(value) for value, __, __ in SAMPLES]


@pytest.mark.parametrize("value,fields,text", SAMPLES, ids=IDS)
def test_hash_is_the_field_tuple_hash(value, fields, text):
    # What ``@dataclass(frozen=True)`` generated: hash((self.x, ...)).
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value,fields,text", SAMPLES, ids=IDS)
def test_repr_and_str_are_unchanged(value, fields, text):
    assert repr(value) == text
    assert str(value) == text


@pytest.mark.parametrize("value,fields,text", SAMPLES, ids=IDS)
def test_fields_are_read_only(value, fields, text):
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, 7)
    with pytest.raises(AttributeError):
        value.extra = 7
    assert value == type(value)(*fields)


@pytest.mark.parametrize(
    "expression",
    [
        lambda: BlockPos(1, 2, 3) + BlockPos(1, 2, 3),
        lambda: ChunkPos(1, 2) + ChunkPos(3, 4),
        lambda: ChunkPos(1, 2) * 2,
        lambda: 2 * ChunkPos(1, 2),
        lambda: BlockPos(1, 2, 3) * 2,
        lambda: Vec3(1.0, 2.0, 3.0) * 2,
        lambda: 2 * Vec3(1.0, 2.0, 3.0),
        lambda: DeliveredPacket(None, 0.0, 1.0) + DeliveredPacket(None, 0.0, 1.0),
    ],
    ids=[
        "BlockPos+BlockPos",
        "ChunkPos+ChunkPos",
        "ChunkPos*2",
        "2*ChunkPos",
        "BlockPos*2",
        "Vec3*2",
        "2*Vec3",
        "DeliveredPacket+DeliveredPacket",
    ],
)
def test_tuple_concatenation_and_repetition_still_raise(expression):
    with pytest.raises(TypeError):
        expression()


def test_delivered_packet_built_by_tuple_new_is_the_keyword_built_one():
    packet = KeepAlivePacket(nonce=9)
    hot = tuple.__new__(DeliveredPacket, (packet, 40.0, 62.5))
    built = DeliveredPacket(packet=packet, sent_at=40.0, delivered_at=62.5)
    assert type(hot) is DeliveredPacket
    assert hot == built and hash(hot) == hash(built) and repr(hot) == repr(built)
    assert hot.packet is packet and hot.latency_ms == built.latency_ms == 22.5


def test_vector_arithmetic_is_componentwise():
    a, b = Vec3(1.0, 2.0, 3.0), Vec3(0.5, 0.5, 0.5)
    assert a + b == Vec3(1.5, 2.5, 3.5)
    assert a - b == Vec3(0.5, 1.5, 2.5)
    assert type(a + b) is Vec3 and type(a - b) is Vec3


@pytest.mark.parametrize("value,fields,text", SAMPLES, ids=IDS)
@pytest.mark.parametrize(
    "dumps", [pickle.dumps, ForkingPickler.dumps], ids=["pickle", "forking"]
)
def test_round_trips_through_both_picklers(value, fields, text, dumps):
    loaded = pickle.loads(dumps(value))
    assert type(loaded) is type(value)
    assert loaded == value
    assert hash(loaded) == hash(value)


# ---------------------------------------------------------------------------
# The shard pipe
# ---------------------------------------------------------------------------


def make_policy():
    return FixedBoundsPolicy(bounds=Bounds(numerical=10.0, staleness_ms=500.0))


@pytest.fixture(scope="module")
def replies():
    """One reply per worker command kind — the one carrying the most
    client packets — captured parent-side from a short 2-shard parallel
    run that builds, digs, chats and hands off."""
    captured: dict[str, object] = {}
    original = _ShardHandle._recv

    def recording_recv(handle):
        payload = original(handle)
        best = captured.get(handle._command)
        if best is None or len(payload["packets"]) > len(best["packets"]):
            captured[handle._command] = payload
        return payload

    _ShardHandle._recv = recording_recv
    try:
        sim = Simulation()
        cluster = ParallelShardRunner(
            sim,
            shards=2,
            strip_width=4,
            config=ServerConfig(
                seed=77, synchronous_delivery=True, mob_count=3, audit_every_n_ticks=20
            ),
            policy_factory=make_policy,
        )
        cluster.start()
        spec = WorkloadSpec(
            bots=8,
            seed=77,
            movement="gathering",
            behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
            arrival_stagger_ms=40.0,
        )
        workload = Workload(sim, cluster, spec)
        workload.start()
        sim.run_until(4_000.0)
        client_id = min(cluster._shard_by_client)
        cluster.submit_action(
            client_id, PlayerActionPacket(action="chat", extra={"text": "over the pipe"})
        )
        sim.run_until(4_200.0)
        cluster.disconnect(client_id)
        sim.run_until(4_400.0)
        cluster.finalize()
    finally:
        _ShardHandle._recv = original
    return captured


def dataclass_instances(value, seen=None):
    """Every dataclass instance reachable from *value*, once each."""
    if seen is None:
        seen = set()
    if id(value) in seen:
        return
    seen.add(id(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        yield value
        children = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    else:
        return
    for child in children:
        yield from dataclass_instances(child, seen)


def frozen_slotted(obj) -> bool:
    cls = type(obj)
    return cls.__dataclass_params__.frozen and "__slots__" in vars(cls)


COMMANDS = ["start", "connect", "tick", "pump", "audit", "disconnect", "finalize"]


def test_every_command_kind_replied(replies):
    assert set(replies) == set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_value_in_a_reply_pickles_by_constructor(replies, command):
    reply = replies[command]
    instances = [obj for obj in dataclass_instances(reply) if frozen_slotted(obj)]
    if command in ("tick", "pump", "connect"):
        assert instances, f"the {command!r} reply carried no value types"
    registered = ForkingPickler._extra_reducers
    for obj in instances:
        assert type(obj) in registered, f"{type(obj).__name__} has no pipe reducer"
        func, args = registered[type(obj)](obj)
        rebuilt = func(*args)
        assert type(rebuilt) is type(obj)
        assert rebuilt == obj
    loaded = pickle.loads(ForkingPickler.dumps(reply))
    for before, after in zip(dataclass_instances(reply), dataclass_instances(loaded)):
        assert type(after) is type(before)
        assert after == before


def test_a_packet_shared_by_clients_crosses_once(replies):
    packets = replies["tick"]["packets"]
    by_id: dict[int, list[int]] = {}
    for index, (__, packet, __, __) in enumerate(packets):
        by_id.setdefault(id(packet), []).append(index)
    shared = [indices for indices in by_id.values() if len(indices) > 1]
    assert shared, "no packet fanned out to several clients in the tick reply"
    loaded = pickle.loads(ForkingPickler.dumps(packets))
    for indices in shared:
        first = loaded[indices[0]][1]
        assert all(loaded[index][1] is first for index in indices)


def test_pipe_reducers_stay_off_copyreg():
    assert _PIPE_VALUE_TYPES
    for cls in (*_PIPE_VALUE_TYPES, Vec3, BlockPos, ChunkPos):
        assert cls not in copyreg.dispatch_table
    assert Bounds in _PIPE_VALUE_TYPES
    # Checkpoints (plain pickle) keep the slotted-dataclass default:
    # class plus field state, not a constructor call.
    bounds = Bounds(numerical=1.0, staleness_ms=2.0)
    assert pickle.dumps(bounds, protocol=4) != bytes(ForkingPickler.dumps(bounds, protocol=4))
    assert pickle.loads(pickle.dumps(bounds, protocol=4)) == bounds
