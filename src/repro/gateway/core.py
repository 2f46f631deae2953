"""Transport-independent gateway routes (S19).

:class:`GatewayCore` owns the route table; the stdlib HTTP app
(:mod:`repro.gateway.app`) is a thin byte-shovel around
:meth:`GatewayCore.handle`, and tests drive ``handle`` directly —
the retune/telemetry logic is identical either way.

Routes::

    GET /healthz      liveness + current tick
    GET /metrics      Prometheus exposition text (the S14 exporter)
    GET /policy       active policy + control-plane queue depths
    GET /stats        middleware counters snapshot
    GET /ops          applied-op audit log (+ pending count)
    GET /store        state-store backends + stored checkpoint keys
    PUT /policy       submit retune ops; applied at the next tick barrier
    POST /checkpoint  capture a durable restart snapshot at the barrier
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any

from repro.cluster.runner import ParallelShardRunner
from repro.gateway.control import ControlPlane
from repro.telemetry.exporters import prometheus_text

JSON = "application/json"
PROM = "text/plain; version=0.0.4"


def _json_float(value: float) -> "float | str":
    return value if math.isfinite(value) else str(value)


def _stats_dict(stats) -> dict:
    out = dataclasses.asdict(stats)
    # Every flush delivers exactly one batch.
    out["per_flush_batch_count"] = stats.flushes
    return out


class GatewayCore:
    """Routes gateway requests onto a live server (or sharded cluster).

    Attaching sets ``target.control_plane`` so the engine applies
    submitted ops at its tick barrier; reads go straight at the live
    objects (CPython dict reads — fine for an operator endpoint). A
    :class:`~repro.cluster.runner.ParallelShardRunner` is refused: its
    dyconit systems live in worker processes, out of reach of both.
    """

    def __init__(self, target, control: ControlPlane | None = None) -> None:
        if isinstance(target, ParallelShardRunner):
            raise ValueError(
                f"cannot attach a gateway to a {type(target).__name__}: its "
                f"dyconit systems live in worker processes, which neither "
                f"apply control-plane ops nor answer reads; attach it to a "
                f"GameServer or a serial ShardedCluster"
            )
        self.target = target
        self.control = control if control is not None else ControlPlane()
        target.control_plane = self.control

    # -- introspection helpers -----------------------------------------

    @property
    def tick(self) -> int:
        t = getattr(self.target, "tick_count", None)
        return t if t is not None else self.target.pump_count

    def _systems(self):
        if hasattr(self.target, "shards"):
            return [s.dyconits for s in self.target.shards if s.dyconits is not None]
        return [self.target.dyconits] if self.target.dyconits is not None else []

    # -- the route table -----------------------------------------------

    def handle(
        self, method: str, path: str, body: bytes | str | None = None
    ) -> tuple[int, str, str]:
        """Dispatch one request; returns ``(status, content_type, body)``."""
        method = method.upper()
        path = path.rstrip("/") or "/"
        try:
            if method == "GET":
                if path == "/healthz":
                    return 200, JSON, json.dumps({"status": "ok", "tick": self.tick})
                if path == "/metrics":
                    return 200, PROM, prometheus_text(self.target.telemetry)
                if path == "/policy":
                    return 200, JSON, json.dumps(self._policy_view())
                if path == "/stats":
                    return 200, JSON, json.dumps(self._stats_view())
                if path == "/ops":
                    return 200, JSON, json.dumps(
                        {
                            "applied": self.control.log,
                            "pending": self.control.pending_count(),
                        }
                    )
                if path == "/store":
                    return 200, JSON, json.dumps(self._store_view())
            elif method == "PUT" and path == "/policy":
                return self._put_policy(body)
            elif method == "POST" and path == "/checkpoint":
                return self._post_checkpoint(body)
            return 404, JSON, json.dumps({"error": f"no route {method} {path}"})
        except ValueError as exc:
            return 400, JSON, json.dumps({"error": str(exc)})

    def _policy_view(self) -> dict:
        policies = []
        for system in self._systems():
            policy = system.policy
            entry: dict[str, Any] = {"class": type(policy).__name__}
            bounds = getattr(policy, "bounds", None)
            if bounds is not None:
                # math.inf is not valid JSON; ship it as a string.
                entry["bounds"] = {
                    "numerical": _json_float(bounds.numerical),
                    "staleness_ms": _json_float(bounds.staleness_ms),
                    "order": _json_float(bounds.order),
                }
            policies.append(entry)
        return {
            "tick": self.tick,
            "policies": policies,
            "pending_ops": self.control.pending_count(),
            "applied_ops": len(self.control.log),
        }

    def _stats_view(self) -> dict:
        systems = self._systems()
        return {
            "tick": self.tick,
            "backend": [s.state_store.name for s in systems],
            "dyconits": sum(s.dyconit_count for s in systems),
            "subscribers": sum(s.subscriber_count for s in systems),
            "stats": [_stats_dict(s.stats) for s in systems],
        }

    def _store_view(self) -> dict:
        """Backends and stored checkpoint keys, per dyconit system."""
        stores = []
        for system in self._systems():
            store = system.state_store
            stores.append(
                {"backend": store.name, "checkpoints": list(store.checkpoint_keys())}
            )
        return {"tick": self.tick, "stores": stores}

    def _post_checkpoint(self, body: bytes | str | None) -> tuple[int, str, str]:
        """Queue a checkpoint op; it captures at the next tick barrier."""
        if not body:
            raise ValueError("POST /checkpoint needs a JSON body")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "key" not in payload:
            raise ValueError("POST /checkpoint body must be {'key': <name>}")
        op_id = self.control.submit({"kind": "checkpoint", "key": payload["key"]})
        return 202, JSON, json.dumps(
            {"accepted": [op_id], "pending": self.control.pending_count()}
        )

    def _put_policy(self, body: bytes | str | None) -> tuple[int, str, str]:
        if not body:
            raise ValueError("PUT /policy needs a JSON body")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("PUT /policy body must be a JSON object")
        accepted: list[int] = []
        if "policy" in payload:
            accepted.append(
                self.control.submit(
                    {
                        "kind": "set_policy",
                        "policy": payload["policy"],
                        "kwargs": payload.get("kwargs", {}),
                    }
                )
            )
        if "bounds" in payload:
            if not isinstance(payload["bounds"], dict):
                raise ValueError("'bounds' must be a JSON object")
            op = dict(payload["bounds"], kind="set_bounds")
            for key in ("dyconit", "subscriber_id"):
                if key in payload:
                    op[key] = payload[key]
            accepted.append(self.control.submit(op))
        if not accepted:
            raise ValueError("body must contain 'policy' and/or 'bounds'")
        return 202, JSON, json.dumps(
            {"accepted": accepted, "pending": self.control.pending_count()}
        )
