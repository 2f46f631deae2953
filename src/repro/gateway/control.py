"""Control plane: retune operations applied at the tick barrier (S19).

HTTP handlers (or tests) **submit** operations from any thread; the
engine **applies** them at exactly one point — the top of
:meth:`GameServer.tick_once` (or the cluster pump) — so a retune can
never interleave with a half-finished tick phase. That is what keeps
runs deterministic and lets the invariant auditor keep its guarantees
while bounds and policies change live.

Two operation kinds:

* ``{"kind": "set_policy", "policy": <name>, "kwargs": {...}}`` —
  swap the dyconit policy for a freshly built one
  (:func:`repro.experiments.configs.make_policy` names).
* ``{"kind": "set_bounds", "numerical": x, "staleness_ms": y,
  "order": z?, "dyconit": [...]?, "subscriber_id": n?}`` — retune
  live subscriptions through :meth:`DyconitSystem.set_bounds` (which
  flushes immediately when a bound tightens past the backlog, so
  auditor invariants hold at the very next check). When the active
  policy carries a ``bounds`` attribute (e.g. fixed), it is updated
  too so *future* subscriptions inherit the new bound.

Three operation kinds, in fact — S20 adds:

* ``{"kind": "checkpoint", "key": <name>}`` — capture a durable
  restart snapshot (:mod:`repro.server.snapshot`) into the dyconit
  state store's checkpoint table, exactly at the barrier. The capture
  is observably read-only: a run that checkpoints and a run that does
  not are packet-identical.
"""

from __future__ import annotations

import math
import threading

from repro.core.bounds import Bounds

#: Operation kinds :meth:`ControlPlane.submit` accepts.
OP_KINDS = ("set_policy", "set_bounds", "checkpoint")


def _bound_value(value, key: str) -> float:
    """A bound from JSON: a number or a numeric string (``"inf"``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(
            f"set_bounds {key} must be a number or a numeric string, got {value!r}"
        )
    return float(value)


def _bounds_from_op(op: dict) -> Bounds:
    try:
        return Bounds(
            numerical=_bound_value(op["numerical"], "numerical"),
            staleness_ms=_bound_value(op["staleness_ms"], "staleness_ms"),
            order=_bound_value(op.get("order", math.inf), "order"),
        )
    except KeyError as exc:
        raise ValueError(f"set_bounds needs a {exc.args[0]} value") from exc


class ControlPlane:
    """Thread-safe queue of retune ops, drained at the tick barrier.

    ``submit`` validates eagerly (bad ops are rejected at the HTTP
    boundary, not mid-tick); ``apply`` drains the queue and records an
    audit log entry per op with the tick it took effect on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queue: list[dict] = []
        self._next_id = 1
        #: Applied-op audit log: op dict + ``applied_tick`` + ``status``.
        self.log: list[dict] = []

    # -- submission (any thread) ---------------------------------------

    def submit(self, op: dict) -> int:
        """Validate and enqueue *op*; returns its id."""
        kind = op.get("kind")
        if kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {kind!r}; expected one of {OP_KINDS}")
        if kind == "set_policy":
            # Build once to validate name/kwargs; the apply step builds a
            # fresh instance so no policy state leaks across submission.
            from repro.experiments.configs import make_policy

            name, kwargs = op.get("policy", ""), op.get("kwargs", {})
            if not isinstance(kwargs, dict):
                raise ValueError(f"kwargs must be a JSON object, got {kwargs!r}")
            try:
                policy = make_policy(name, **kwargs)
            except TypeError as exc:
                raise ValueError(f"policy {name!r} rejects kwargs {sorted(kwargs)}: {exc}") from exc
            if policy is None:
                raise ValueError(
                    "policy 'vanilla' means no middleware; a running dyconit "
                    "server cannot be retuned to it"
                )
        elif kind == "checkpoint":
            key = op.get("key")
            if not isinstance(key, str) or not key:
                raise ValueError("checkpoint needs a non-empty string 'key'")
        else:
            _bounds_from_op(op)  # raises on missing, negative or NaN values
        with self._lock:
            op = dict(op, id=self._next_id)
            self._next_id += 1
            self._queue.append(op)
            return op["id"]

    def pending_count(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- application (engine thread, at the barrier) -------------------

    def apply(self, target, tick: int) -> int:
        """Apply every queued op to *target* (server or cluster) at *tick*.

        Returns the number of ops applied. Application errors are
        recorded in the log, never raised: a bad retune must not take
        the tick loop down.
        """
        with self._lock:
            if not self._queue:
                return 0
            batch, self._queue = self._queue, []
        servers = list(target.shards) if hasattr(target, "shards") else [target]
        for op in batch:
            status = "ok"
            try:
                if op["kind"] == "checkpoint":
                    # One snapshot of the whole target: a cluster is
                    # captured cluster-wide (bus and all), not per shard.
                    from repro.server.snapshot import checkpoint_target

                    checkpoint_target(target, op["key"])
                else:
                    for server in servers:
                        self._apply_one(server, op)
            except Exception as exc:  # noqa: BLE001 — logged, not fatal
                status = f"error: {exc}"
            self.log.append(dict(op, applied_tick=tick, status=status))
        return len(batch)

    def _apply_one(self, server, op: dict) -> None:
        system = server.dyconits
        if system is None:
            raise ValueError("server runs in direct mode; nothing to retune")
        if op["kind"] == "set_policy":
            from repro.experiments.configs import make_policy

            system.policy = make_policy(op["policy"], **op.get("kwargs", {}))
            return
        bounds = _bounds_from_op(op)
        only_dyconit = op.get("dyconit")
        if isinstance(only_dyconit, list):
            only_dyconit = tuple(only_dyconit)
        only_subscriber = op.get("subscriber_id")
        policy = system.policy
        if only_dyconit is None and only_subscriber is None and hasattr(policy, "bounds"):
            policy.bounds = bounds
        for dyconit in list(system.dyconits()):
            if only_dyconit is not None and dyconit.dyconit_id != only_dyconit:
                continue
            for state in list(dyconit.subscription_states()):
                subscriber_id = state.subscriber.subscriber_id
                if only_subscriber is not None and subscriber_id != only_subscriber:
                    continue
                system.set_bounds(dyconit.dyconit_id, subscriber_id, bounds)
