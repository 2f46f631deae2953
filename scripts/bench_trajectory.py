#!/usr/bin/env python3
"""Record the sweep-executor trajectory and gate the parallel shard runtime.

Usage: [PYTHONPATH=src] python scripts/bench_trajectory.py [--quick]
           [--sweep] [--jobs N] [--sweep-out PATH]
           [--guard-parallel] [--out PATH]

Wall-clock cost per simulated tick, end to end and per layer, is
``python3 bench/run.py`` (see ``bench/README.md``); this script keeps the
two recordings that harness does not make.

``--guard-parallel`` gates the S18 shard-parallel tick runtime. The
determinism half always runs: a 2-shard workload under the serial
:class:`ShardedCluster` and the process-parallel
:class:`ParallelShardRunner` must produce byte-identical packet streams,
on any machine — determinism is not noise-sensitive. The wall-clock half
(parallel speedup over serial) records an honest skip with the CPU count
and reason on single-core hosts: a time-sliced core measures scheduler
noise, not the code under test. ``--out PATH`` writes the guard payload
(``{"parallel_guard": ...}``) as JSON.

``--sweep`` benchmarks the parallel sweep executor (cold serial vs cold
``--jobs N`` vs warm-cache rerun over a small E1+E9-shaped grid) and
writes BENCH_sweep.json. The payload records the machine's CPU count
next to the speedup — on a single-core box the speedup is *suppressed*
(``parallel_speedup: null`` plus an explanatory
``parallel_speedup_suppressed`` note): workers time-slicing one core
measure scheduler overhead, not parallelism. Only the warm-cache
fraction and byte-identity check are meaningful there.

``--quick`` shortens both (CI smoke; numbers are noisy).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))


def parallel_guard(quick: bool, jobs: int) -> dict:
    """Gate the S18 parallel shard runtime (see module docstring).

    Determinism always; speedup only where a wall-clock comparison means
    something (>= 2 CPUs and enough of them to host ``jobs`` workers).
    """
    import hashlib
    import os
    import time

    from repro.bots.workload import BehaviorMix, Workload, WorkloadSpec
    from repro.cluster import ParallelShardRunner, ShardedCluster
    from repro.policies.zero import ZeroBoundsPolicy
    from repro.server.config import ServerConfig
    from repro.sim.simulator import Simulation

    shards = max(2, jobs)
    duration_ms = 3_000.0 if quick else 10_000.0

    def run(parallel: bool) -> tuple[str, float]:
        sim = Simulation()
        config = ServerConfig(seed=1234, synchronous_delivery=True, mob_count=3)
        cluster_cls = ParallelShardRunner if parallel else ShardedCluster
        cluster = cluster_cls(
            sim, shards=shards, strip_width=4, config=config,
            policy_factory=ZeroBoundsPolicy,
        )
        cluster.start()
        # Digest per-client streams (sorted by client): that is what a
        # client observes. Cross-client interleaving inside one sim
        # timestamp is unobservable and legitimately differs — the
        # parallel barrier replays merged per-shard batches in shard
        # order while serial delivers inline mid-tick.
        captures: dict[str, list] = {}
        original_connect = cluster.connect

        def tapping_connect(name, handler, **kwargs):
            log = captures.setdefault(name, [])

            def tapped(delivered):
                log.append(repr(delivered.packet))
                handler(delivered)

            return original_connect(name, tapped, **kwargs)

        cluster.connect = tapping_connect
        workload = Workload(sim, cluster, WorkloadSpec(
            bots=8, seed=1234, movement="gathering",
            behavior=BehaviorMix(build=0.1, dig=0.05, chat=0.01),
            arrival_stagger_ms=40.0,
        ))
        workload.start()
        started = time.perf_counter()
        sim.run_until(duration_ms)
        if parallel:
            cluster.finalize()
        elapsed = time.perf_counter() - started
        digest = hashlib.sha256()
        for name in sorted(captures):
            digest.update(name.encode())
            for packet in captures[name]:
                digest.update(packet.encode())
        return digest.hexdigest(), elapsed

    serial_digest, serial_s = run(parallel=False)
    parallel_digest, parallel_s = run(parallel=True)
    result = {
        "shards": shards,
        "duration_ms": duration_ms,
        "serial_digest": serial_digest,
        "parallel_digest": parallel_digest,
        "identical": serial_digest == parallel_digest,
    }
    cpu_count = os.cpu_count() or 1
    result["cpu_count"] = cpu_count
    if cpu_count < 2:
        result["speedup"] = None
        result["speedup_suppressed"] = (
            f"cpu_count={cpu_count}: single-CPU host; worker processes "
            "time-slice one core, so wall-clock speedup measures "
            "scheduler overhead, not parallelism"
        )
    else:
        result["serial_wall_s"] = serial_s
        result["parallel_wall_s"] = parallel_s
        result["speedup"] = serial_s / parallel_s if parallel_s else None
    result["status"] = "passed" if result["identical"] else "failed"
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs and a smaller grid (CI smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the --guard-parallel payload here")
    parser.add_argument("--sweep", action="store_true",
                        help="benchmark the parallel sweep executor "
                        "and write BENCH_sweep.json")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for --sweep; shard count for "
                        "--guard-parallel")
    parser.add_argument("--sweep-out", type=Path,
                        default=REPO_ROOT / "BENCH_sweep.json")
    parser.add_argument("--guard-parallel", action="store_true",
                        help="fail if a parallel shard run diverges from "
                        "serial bytes; records speedup (honest skip of "
                        "the timing half on 1-CPU hosts)")
    args = parser.parse_args()
    if not (args.sweep or args.guard_parallel):
        parser.error("nothing to do: pass --sweep and/or --guard-parallel")

    if args.guard_parallel:
        par_guard = parallel_guard(quick=args.quick, jobs=args.jobs)
        if args.out is not None:
            payload = {
                "quick": args.quick,
                "python": platform.python_version(),
                "parallel_guard": par_guard,
            }
            args.out.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {args.out}")
        verdict = "identical" if par_guard["identical"] else "DIVERGED"
        print(
            f"parallel guard: {par_guard['shards']}-shard "
            f"{par_guard['duration_ms']:.0f}ms run serial vs parallel "
            f"bytes [{verdict}]"
        )
        if par_guard["speedup"] is None:
            print(
                "parallel guard: speedup SKIPPED "
                f"({par_guard['speedup_suppressed']})"
            )
        else:
            print(
                f"parallel guard: speedup {par_guard['speedup']:.2f}x "
                f"(serial {par_guard['serial_wall_s']:.2f}s, parallel "
                f"{par_guard['parallel_wall_s']:.2f}s, "
                f"{par_guard['cpu_count']} CPUs)"
            )
        print(f"parallel guard: {par_guard['status'].upper()}")
        if par_guard["status"] == "failed":
            sys.exit(1)

    if args.sweep:
        from repro.experiments.parallel import default_bench_cells, sweep_benchmark

        cells = (
            default_bench_cells(bots=4, duration_ms=2_500.0, points=4)
            if args.quick
            else default_bench_cells()
        )
        sweep_payload = sweep_benchmark(cells=cells, jobs=args.jobs)
        sweep_payload["quick"] = args.quick
        sweep_payload["python"] = platform.python_version()
        print()
        print(f"{'mode':<14} {'jobs':>5} {'cache hits':>11} {'wall s':>9}")
        for row in sweep_payload["rows"]:
            print(
                f"{row['mode']:<14} {row['jobs']:>5} "
                f"{row['cache_hits']:>11} {row['wall_s']:>9.3f}"
            )
        speedup = sweep_payload["parallel_speedup"]
        speedup_text = (
            f"{speedup}x" if speedup is not None
            else "suppressed (single-CPU host)"
        )
        print(
            f"parallel speedup: {speedup_text} "
            f"({sweep_payload['params']['cpu_count']} CPUs); "
            f"warm rerun: {100 * sweep_payload['warm_fraction_of_cold']:.1f}% "
            f"of cold; stores byte-identical: "
            f"{sweep_payload['stores_byte_identical']}"
        )
        args.sweep_out.write_text(json.dumps(sweep_payload, indent=2) + "\n")
        print(f"wrote {args.sweep_out}")


if __name__ == "__main__":
    main()
