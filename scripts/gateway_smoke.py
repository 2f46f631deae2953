#!/usr/bin/env python3
"""Boot a server + gateway, retune it over real HTTP — CI smoke (S19).

Usage: [PYTHONPATH=src] python scripts/gateway_smoke.py [--store SPEC]
           [--bots N] [--warmup-ms MS]

Checks, over an actual loopback socket (stdlib server, stdlib client):

1. ``GET /healthz`` and ``GET /metrics`` respond; the metrics text
   carries the middleware counter families.
2. ``PUT /policy`` with tightened bounds is accepted (202) and the op
   is applied at **exactly the next tick** — the "observable within one
   tick" acceptance bar, read back from ``GET /ops``.
3. The retune is live: the policy view reflects the new bounds, and a
   post-retune run flushes on every commit (zero bounds ⇒ no batching).
4. Bad requests (policy "vanilla", a ``bounds`` that is not an object)
   are rejected with 400, no op is queued, and the gateway still answers
   ``GET /healthz`` afterwards.

Exit code 0 on success; any assertion failure is fatal.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.error
import urllib.request

from repro.bots.workload import Workload, WorkloadSpec
from repro.experiments.configs import make_policy
from repro.gateway import serve_gateway
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.telemetry.hub import Telemetry
from repro.world.world import World


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default="memory", help="state store spec")
    parser.add_argument("--bots", type=int, default=6)
    parser.add_argument("--warmup-ms", type=float, default=2_000.0)
    args = parser.parse_args()

    sim = Simulation()
    server = GameServer(
        sim,
        world=World(seed=11),
        config=ServerConfig(
            seed=11,
            synchronous_delivery=True,
            mob_count=3,
            audit_every_n_ticks=1,
            state_store=args.store,
        ),
        policy=make_policy("fixed"),
        telemetry=Telemetry(),
    )
    server.start()
    Workload(sim, server, WorkloadSpec(bots=args.bots, seed=11)).start()
    sim.run_until(args.warmup_ms)

    gateway = serve_gateway(server)
    base = f"http://127.0.0.1:{gateway.port}"
    print(f"gateway up on {base} (store={args.store})")

    def get(path: str) -> tuple[int, str]:
        with urllib.request.urlopen(base + path) as response:
            return response.status, response.read().decode()

    def put(path: str, payload: dict) -> tuple[int, str]:
        request = urllib.request.Request(
            base + path, method="PUT", data=json.dumps(payload).encode()
        )
        with urllib.request.urlopen(request) as response:
            return response.status, response.read().decode()

    # 1. Liveness + telemetry out.
    status, body = get("/healthz")
    assert status == 200 and json.loads(body)["status"] == "ok", body
    status, metrics = get("/metrics")
    assert status == 200, status
    for family in ("repro_dyconit_commits_total", "repro_dyconit_flushes_total"):
        assert family in metrics, f"metrics missing {family}"
    print(f"  /metrics: {len(metrics.splitlines())} lines")

    # 2. Retune in, applied at exactly the next tick barrier.
    status, body = put("/policy", {"bounds": {"numerical": 0.0, "staleness_ms": 0.0}})
    assert status == 202, (status, body)
    tick_at_submit = server.tick_count
    sim.run_until(sim.now + 200.0)
    status, body = get("/ops")
    ops = json.loads(body)
    (applied,) = ops["applied"]
    assert applied["status"] == "ok", applied
    assert applied["applied_tick"] == tick_at_submit + 1, (
        f"retune took effect at tick {applied['applied_tick']}, "
        f"submitted during tick {tick_at_submit}"
    )
    print(f"  retune applied at tick {applied['applied_tick']} "
          f"(submitted during tick {tick_at_submit})")

    # 3. Effect is live: policy view shows the bounds; zero bounds means
    #    every enqueue flushes, so no update sits in a queue afterwards.
    status, body = get("/policy")
    bounds = json.loads(body)["policies"][0]["bounds"]
    assert bounds["numerical"] == 0.0 and bounds["staleness_ms"] == 0.0, bounds
    stats = server.dyconits.stats
    flushed_before = stats.updates_delivered
    sim.run_until(sim.now + 1_000.0)
    assert stats.updates_delivered > flushed_before, "no deliveries after retune"
    pending = sum(
        1
        for dyconit in server.dyconits.dyconits()
        for state in dyconit.subscription_states()
        if state.has_pending
    )
    assert pending == 0, f"{pending} updates queued despite zero bounds"
    print(f"  post-retune deliveries: {stats.updates_delivered - flushed_before}, "
          f"pending after tick: {pending}")

    # 4. Bad requests bounce with 400, queue nothing and leave the
    #    gateway answering.
    for bad in ({"policy": "vanilla"}, {"bounds": 5}):
        try:
            put("/policy", bad)
            raise AssertionError(f"{bad} should have been rejected")
        except urllib.error.HTTPError as error:
            assert error.code == 400, (bad, error.code)
        status, body = get("/ops")
        assert json.loads(body)["pending"] == 0, (bad, body)
    status, body = get("/healthz")
    assert status == 200 and json.loads(body)["status"] == "ok", body
    print("  malformed retunes rejected with 400; /healthz still answers")

    gateway.stop()
    print("gateway smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
