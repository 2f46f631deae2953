#!/usr/bin/env python3
"""Print a digest transcript for a tiny sweep — determinism oracle for CI.

Usage: [PYTHONPATH=src] python scripts/determinism_check.py [--jobs N]

Runs a nine-cell sweep — four E1+E9-shaped single-server cells, a
2-shard cluster cell (S16), its shard-parallel twin (S18; worker
processes must reproduce the serial cell's result byte-for-byte), a
row-store cell (``state_store="sqlite"``: the batched row store; the
other cells all run the columnar memory store), a direct-mode cell
on lossy links (the shared-packet broadcast and the corked per-client
egress frames, with the fault layer drawing per packet inside them) and
a ``fixed``-policy cell (one finite staleness bound for every pair, so
all deadlines of a tick tie and packet order rests on the due pass's
tie-break) — and prints, one per line, each cell's cache key (the
content-addressed config digest) followed by the sha256 of the merged
result store. The S18 twin is additionally diffed against the serial
cell in-process: its traffic totals and handoff counts must be
identical, or the script exits non-zero. CI runs this twice under different
``PYTHONHASHSEED`` values and diffs the output: any dependence on dict
iteration order, set ordering, or ``hash()`` in the config
normalization, the simulation (including the inter-shard bus pump and
handoff ordering), or the store serialization shows up as a digest
mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.configs import ExperimentConfig  # noqa: E402
from repro.experiments.figures import make_fault_plan  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    config_digest,
    default_bench_cells,
    run_sweep,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker-process count (digests must not depend on it)")
    args = parser.parse_args()

    cells = default_bench_cells(bots=4, duration_ms=2_000.0, points=4)
    # A sharded cell exercises the cross-shard bus, handoffs, and ghost
    # replication — the paths most likely to leak hash-order dependence.
    cells.append(
        ExperimentConfig(
            name="det-cluster-2shard",
            policy="adaptive",
            movement="gathering",
            bots=6,
            duration_ms=3_000.0,
            warmup_ms=1_000.0,
            seed=19,
            shards=2,
        )
    )
    # The same cluster cell under the S18 parallel tick runtime: worker
    # processes meeting at the bus barrier must land on the serial bytes.
    cells.append(cells[-1].with_(name="det-cluster-2shard-par", parallel_ticks=True))
    # The row store's batched commit, due pass and retune must stay as
    # deterministic as the columnar path the other cells exercise.
    cells.append(
        ExperimentConfig(
            name="det-sqlite-rows",
            policy="adaptive",
            movement="hotspot",
            bots=4,
            duration_ms=2_000.0,
            warmup_ms=500.0,
            seed=23,
            state_store="sqlite",
        )
    )
    # Direct mode on lossy links: one packet object shared by a move's
    # viewers, one egress frame per client per tick, FaultyLink drawing
    # per packet inside each frame.
    cells.append(
        ExperimentConfig(
            name="det-vanilla-direct",
            policy="vanilla",
            movement="hotspot",
            bots=6,
            duration_ms=2_000.0,
            warmup_ms=500.0,
            seed=29,
            faults=make_fault_plan(0.02),
        )
    )
    # One staleness bound for every pair: the deadlines of a tick all
    # tie, so packet order within a tick rests on the due pass's
    # tie-break (membership order) alone.
    cells.append(
        ExperimentConfig(
            name="det-fixed-ties",
            policy="fixed",
            movement="hotspot",
            bots=6,
            duration_ms=2_000.0,
            warmup_ms=500.0,
            seed=31,
        )
    )
    for cell in cells:
        print(f"cell {cell.name} {config_digest(cell)}")

    with tempfile.TemporaryDirectory(prefix="determinism-check-") as tmp:
        store_path = Path(tmp) / "store.json"
        report = run_sweep(
            cells,
            jobs=args.jobs,
            cache_dir=Path(tmp) / "cache",
            store_path=store_path,
        )
        report.raise_on_failure()
        store_sha = hashlib.sha256(store_path.read_bytes()).hexdigest()

        # S18 differential: the parallel twin must reproduce the serial
        # cluster cell's observable result exactly.
        serial = report.results["det-cluster-2shard"]
        par = report.results["det-cluster-2shard-par"]
        mismatches = [
            field
            for field in (
                "bytes_total", "packets_total", "handoffs",
                "entity_transfers", "intershard_bytes", "intershard_messages",
            )
            if getattr(serial, field) != getattr(par, field)
        ]
        if mismatches:
            for field in mismatches:
                print(
                    f"serial/parallel mismatch on {field}: "
                    f"{getattr(serial, field)} != {getattr(par, field)}",
                    file=sys.stderr,
                )
            sys.exit(1)
        print("serial/parallel cluster cells identical")
    print(f"store {store_sha}")


if __name__ == "__main__":
    main()
