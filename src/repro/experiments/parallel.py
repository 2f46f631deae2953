"""Parallel sweep executor with a content-addressed result cache (S14).

The E1–E9 drivers ultimately reduce to "run this list of
:class:`~repro.experiments.configs.ExperimentConfig` cells and aggregate
the results". This module executes such a list:

* **sharded across processes** — each worker constructs its own
  :class:`~repro.sim.simulator.Simulation`, so per-cell determinism is
  exactly the single-process story; results are merged back in the
  caller's cell order, which makes ``--jobs N`` output byte-identical to
  serial output (the serial≡parallel oracle in
  ``tests/test_parallel_differential.py``);
* **behind a content-addressed cache** — a cell's key is a stable hash
  of its *normalized* config (:func:`config_digest`), so re-running a
  sweep skips completed cells and a crashed or interrupted sweep resumes
  from the cell store instead of restarting;
* **with crash isolation** — a worker that raises or dies only loses its
  own cell; the cell is retried a bounded number of times and then
  reported as failed (never hung). All store writes are atomic
  (tmp + rename), so a kill mid-write leaves either the old state or the
  new state, never a torn file.

``jobs <= 1`` runs every cell in-process with no multiprocessing at all:
that path is the ground truth the parallel path is differential-tested
against, and it shares the same cache/resume semantics.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import multiprocessing.connection
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.experiments.configs import ExperimentConfig, config_from_dict, config_to_dict
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.experiments.store import atomic_write_text, result_from_dict, result_to_dict
from repro.telemetry.hub import Telemetry, get_telemetry, set_telemetry

#: Version tag hashed into every cache key; bump when the meaning of a
#: config field (or the result schema) changes so stale cells never
#: masquerade as current ones. /2: configs grew shards/strip_width and
#: results grew the S16 cluster counters. /3: configs grew the S17
#: commit-path toggle. /4: configs grew the S18 parallel_ticks toggle.
#: /5: configs grew the S19 state_store spec. /6: configs lost the S17
#: toggle, and PRs 18-19 had changed result values for an unchanged
#: config (``dyconit_stats.bound_checks``, reservoir-mode
#: ``packet_latency``) without a bump. /7: ``bound_checks`` counts the
#: pending subscriptions a due pass examines (S22), not heap pops.
CACHE_SCHEMA = "sweep-cell/7"


def default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    Fork skips the per-worker interpreter + numpy re-import (significant
    against seconds-long cells); spawn re-imports the parent ``__main__``
    module, which also breaks under stdin/REPL parents. Determinism is
    identical either way — every cell builds a fresh ``Simulation`` from
    its config, never from inherited state.
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# ----------------------------------------------------------------------
# Cache keys: stable content hash of a normalized config
# ----------------------------------------------------------------------


def _canonical(value):
    """Recursively normalize a JSON-ish value for hashing.

    * dict keys are sorted (insertion order must not matter);
    * integral numbers hash the same whether they arrive as ``30000``
      or ``30000.0`` (JSON round-trips and hand-written overrides may
      disagree on the type); non-integral floats keep full ``repr``
      precision;
    * tuples and lists are interchangeable.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        number = float(value)
        if number != number or number in (float("inf"), float("-inf")):
            return repr(number)
        return int(number) if number.is_integer() else repr(number)
    if isinstance(value, dict):
        return {str(key): _canonical(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def normalize_config(config: ExperimentConfig | dict) -> dict:
    """The canonical dict a cell's cache key is computed from."""
    data = config_to_dict(config) if isinstance(config, ExperimentConfig) else config
    return _canonical({"schema": CACHE_SCHEMA, "config": data})


def config_digest(config: ExperimentConfig | dict) -> str:
    """Stable content hash of a config (hex SHA-256).

    Invariant under dict key order, ``with_()`` round-trips, int/float
    representation of integral numbers, and ``PYTHONHASHSEED``.
    """
    normalized = normalize_config(config)
    text = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cell store: one atomic JSON file per (digest) under a cache directory
# ----------------------------------------------------------------------


def cell_path(cache_dir: str | Path, digest: str) -> Path:
    return Path(cache_dir) / f"{digest}.json"


def _error_path(cache_dir: str | Path, digest: str) -> Path:
    return Path(cache_dir) / f"{digest}.err"


def store_cell(cache_dir: str | Path, digest: str, name: str, payload: dict) -> Path:
    """Atomically persist one finished cell (tmp file + rename)."""
    path = cell_path(cache_dir, digest)
    body = json.dumps(
        {"schema": CACHE_SCHEMA, "digest": digest, "name": name, "result": payload},
        indent=2,
    )
    atomic_write_text(path, body)
    error_file = _error_path(cache_dir, digest)
    if error_file.exists():
        error_file.unlink()
    return path


def load_cell(cache_dir: str | Path, digest: str) -> dict | None:
    """The stored result payload for ``digest``, or None.

    Treats a missing, truncated, or schema-mismatched file as a miss —
    a SIGKILL mid-write (pre-atomic-writes) or a cache from an older
    schema must cause recomputation, not a crash.
    """
    path = cell_path(cache_dir, digest)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
        return None
    if data.get("digest") != digest or "result" not in data:
        return None
    return data["result"]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_main(spec: dict) -> None:
    """Run one cell in a fresh process and persist it to the cell store.

    The parent never receives results over a pipe: the atomic cell file
    *is* the hand-off, which is what makes a crashed sweep resumable and
    the parallel store bytes independent of scheduling order.
    """
    cache_dir = spec["cache_dir"]
    digest = spec["digest"]
    try:
        # A forked worker inherits the parent's ambient telemetry hub —
        # including every counter the parent accumulated before the
        # fork, so a worker-side dump would double-count parent history.
        # Install a fresh hub (same enabled-ness) before running a cell.
        set_telemetry(Telemetry(enabled=get_telemetry().enabled))
        config = config_from_dict(spec["config"])
        recomputed = config_digest(config)
        if recomputed != digest:
            raise RuntimeError(
                "config digest changed across the process boundary "
                f"({digest[:12]} -> {recomputed[:12]}); the normalization "
                "is not stable"
            )
        result = run_experiment(config)
        store_cell(cache_dir, digest, config.name, result_to_dict(result))
    except BaseException:
        try:
            atomic_write_text(_error_path(cache_dir, digest), traceback.format_exc())
        except OSError:
            pass
        sys.exit(1)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class CellOutcome:
    """How one cell of the sweep concluded."""

    name: str
    digest: str
    #: "cache" (skipped: already in the store), "run", or "failed".
    source: str
    attempts: int = 0
    wall_s: float = 0.0
    error: str | None = None
    #: The exception an in-process (``jobs <= 1``) attempt raised.
    exception: Exception | None = None


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` produced, in input cell order."""

    jobs: int
    cells: list[CellOutcome] = field(default_factory=list)
    #: Successful results by cell name, input order.
    results: dict[str, ExperimentResult] = field(default_factory=dict)
    #: The JSON-safe result payloads the merged store is built from.
    payloads: dict[str, dict] = field(default_factory=dict)
    #: Cell name -> error description for cells that exhausted retries.
    failures: dict[str, str] = field(default_factory=dict)
    store_path: Path | None = None

    @property
    def cache_hits(self) -> list[str]:
        return [cell.name for cell in self.cells if cell.source == "cache"]

    @property
    def cells_run(self) -> list[str]:
        return [cell.name for cell in self.cells if cell.source == "run"]

    def merged_payload(self) -> dict:
        """The merged store dict (deterministic: input cell order)."""
        return {
            cell.name: self.payloads[cell.name]
            for cell in self.cells
            if cell.name in self.payloads
        }

    def raise_on_failure(self) -> "SweepReport":
        if self.failures:
            names = ", ".join(sorted(self.failures))
            first = next(iter(self.failures.values()))
            raise RuntimeError(
                f"{len(self.failures)} sweep cell(s) failed ({names}); "
                f"first error:\n{first}"
            )
        return self


def _record_cell(telemetry: Telemetry, outcome: CellOutcome) -> None:
    telemetry.counter("sweep_cells_total", source=outcome.source).increment()
    if outcome.source != "cache":
        telemetry.histogram("sweep_cell_wall_ms", min_value=0.1).record(
            outcome.wall_s * 1e3
        )
    telemetry.event(
        "sweep.cell",
        name=outcome.name,
        digest=outcome.digest[:12],
        source=outcome.source,
        attempts=outcome.attempts,
        wall_ms=round(outcome.wall_s * 1e3, 3),
    )


def _finish_cell(report: SweepReport, cache_dir, outcome: CellOutcome) -> None:
    payload = load_cell(cache_dir, outcome.digest)
    if payload is None:
        outcome.source = "failed"
        outcome.error = outcome.error or "worker produced no readable cell file"
        report.failures[outcome.name] = outcome.error
        return
    report.payloads[outcome.name] = payload
    report.results[outcome.name] = result_from_dict(payload)


def run_sweep(
    cells,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    retries: int = 1,
    store_path: str | Path | None = None,
    telemetry: Telemetry | None = None,
    mp_context: str | None = None,
) -> SweepReport:
    """Execute a list of experiment cells, possibly in parallel.

    Args:
        cells: sequence of :class:`ExperimentConfig`; ``name`` fields
            must be unique (they key the merged store).
        jobs: worker process count. ``<= 1`` runs in-process (the serial
            oracle); ``> 1`` shards cells across ``jobs`` spawned
            workers.
        cache_dir: cell-store directory. Cells whose digest is already
            present are *not* recomputed (resume / warm-cache); omitted,
            a private temp directory is used and discarded, so every
            cell recomputes.
        retries: how many times a failing cell is retried before being
            reported in ``report.failures`` (total attempts =
            ``retries + 1``).
        store_path: when given, the merged store (cell name ->
            ``result_to_dict``) is atomically written here, in input
            cell order.
        telemetry: hub for per-cell timing rows (defaults to ambient).
        mp_context: multiprocessing start method for workers; defaults
            to :func:`default_start_method` (``fork`` on POSIX, else
            ``spawn``). Both are equally deterministic — every cell
            builds a fresh ``Simulation`` either way.

    Returns:
        A :class:`SweepReport`; failed cells are absent from
        ``results``/the merged store and listed in ``failures``.
    """
    cells = list(cells)
    names = [cell.name for cell in cells]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"cell names must be unique, duplicated: {duplicates}")
    if telemetry is None:
        telemetry = get_telemetry()

    private_cache = cache_dir is None
    if private_cache:
        cache_dir = tempfile.mkdtemp(prefix="repro-sweep-")
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)

    report = SweepReport(jobs=max(1, jobs))
    try:
        pending: list[tuple[ExperimentConfig, str]] = []
        by_digest: dict[str, CellOutcome] = {}
        for cell in cells:
            digest = config_digest(cell)
            payload = load_cell(cache_dir, digest)
            if payload is not None:
                outcome = CellOutcome(name=cell.name, digest=digest, source="cache")
                report.payloads[cell.name] = payload
                report.results[cell.name] = result_from_dict(payload)
            else:
                outcome = CellOutcome(name=cell.name, digest=digest, source="pending")
                pending.append((cell, digest))
                by_digest[digest] = outcome
            report.cells.append(outcome)

        if jobs <= 1:
            _run_serial(pending, cache_dir, retries, by_digest)
        else:
            _run_parallel(pending, cache_dir, retries, by_digest, jobs, mp_context)

        for cell, digest in pending:
            outcome = by_digest[digest]
            if outcome.source == "run":
                _finish_cell(report, cache_dir, outcome)
            else:
                report.failures[outcome.name] = outcome.error or "unknown failure"
        for outcome in report.cells:
            _record_cell(telemetry, outcome)

        # Reorder the name-keyed maps to input order (parallel completion
        # order is scheduling-dependent; the report must not be).
        report.results = {
            name: report.results[name] for name in names if name in report.results
        }
        report.payloads = {
            name: report.payloads[name] for name in names if name in report.payloads
        }

        if store_path is not None:
            store_path = Path(store_path)
            atomic_write_text(
                store_path, json.dumps(report.merged_payload(), indent=2)
            )
            report.store_path = store_path
        return report
    finally:
        if private_cache:
            import shutil

            shutil.rmtree(cache_dir, ignore_errors=True)


def _run_serial(pending, cache_dir, retries, by_digest) -> None:
    """The in-process oracle: same cells, same store writes, no workers."""
    for cell, digest in pending:
        outcome = by_digest[digest]
        start = perf_counter()
        for attempt in range(1, retries + 2):
            outcome.attempts = attempt
            try:
                result = run_experiment(cell)
            except Exception as exception:
                outcome.error = traceback.format_exc()
                outcome.exception = exception
                continue
            store_cell(cache_dir, digest, cell.name, result_to_dict(result))
            outcome.source = "run"
            outcome.error = None
            outcome.exception = None
            break
        else:
            outcome.source = "failed"
        outcome.wall_s = perf_counter() - start


def _run_parallel(pending, cache_dir, retries, by_digest, jobs, mp_context) -> None:
    """Shard pending cells over ``jobs`` worker processes.

    Workers hand results back through the cell store only; the parent
    just tracks exit codes, retries crashed/raising cells up to
    ``retries`` times, and never blocks on a single wedged cell slot.
    """
    context = multiprocessing.get_context(mp_context or default_start_method())
    queue: list[tuple[ExperimentConfig, str, int]] = [
        (cell, digest, 1) for cell, digest in pending
    ]
    running: dict = {}  # sentinel -> (process, cell, digest, attempt, started)

    def launch(cell, digest, attempt) -> None:
        spec = {
            "cache_dir": str(cache_dir),
            "digest": digest,
            "name": cell.name,
            "config": config_to_dict(cell),
        }
        process = context.Process(target=_worker_main, args=(spec,), daemon=True)
        process.start()
        running[process.sentinel] = (process, cell, digest, attempt, perf_counter())

    try:
        while queue or running:
            while queue and len(running) < jobs:
                launch(*queue.pop(0))
            ready = multiprocessing.connection.wait(list(running), timeout=1.0)
            for sentinel in ready:
                process, cell, digest, attempt, started = running.pop(sentinel)
                process.join()
                elapsed = perf_counter() - started
                outcome = by_digest[digest]
                outcome.attempts = attempt
                outcome.wall_s += elapsed
                if load_cell(cache_dir, digest) is not None:
                    outcome.source = "run"
                    outcome.error = None
                    continue
                error_file = _error_path(cache_dir, digest)
                if error_file.exists():
                    outcome.error = error_file.read_text()
                else:
                    outcome.error = (
                        f"worker died with exit code {process.exitcode} "
                        "and left no error report (crash/SIGKILL)"
                    )
                if attempt <= retries:
                    queue.append((cell, digest, attempt + 1))
                else:
                    outcome.source = "failed"
    finally:
        for process, *_ in running.values():
            process.terminate()
        for process, *_ in running.values():
            process.join()


# ----------------------------------------------------------------------
# Convenience for the figure drivers
# ----------------------------------------------------------------------


def run_cells(
    cells,
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    **kwargs,
) -> list[ExperimentResult]:
    """Run cells through :func:`run_sweep` and return results in input
    order; raise if any failed.

    Every result, serial or parallel, is the one read back from its cell
    file, so ``jobs`` changes where a cell runs and never what it returns.
    A cell that failed in-process re-raises its own exception; a worker's
    failure is raised as a ``RuntimeError`` carrying its traceback.
    """
    cells = list(cells)
    report = run_sweep(cells, jobs=jobs, cache_dir=cache_dir, **kwargs)
    for outcome in report.cells:
        if outcome.exception is not None:
            raise outcome.exception
    report.raise_on_failure()
    return [report.results[cell.name] for cell in cells]


# ----------------------------------------------------------------------
# Wall-clock benchmark (BENCH_sweep.json)
# ----------------------------------------------------------------------


def default_bench_cells(
    bots: int = 8, duration_ms: float = 4_000.0, points: int = 4, seed: int = 42
) -> list[ExperimentConfig]:
    """A small E1+E9-shaped grid for the sweep wall-clock benchmark."""
    from repro.experiments.figures import make_fault_plan

    cells: list[ExperimentConfig] = []
    policies = ("zero", "adaptive")
    for index in range(points):
        policy = policies[index % len(policies)]
        loss = 0.0 if index < points // 2 else 0.02
        cells.append(
            ExperimentConfig(
                name=f"sweep-bench-{index}-{policy}-loss{loss:g}",
                policy=policy,
                bots=bots,
                duration_ms=duration_ms,
                warmup_ms=duration_ms / 4,
                seed=seed + index,
                faults=make_fault_plan(loss),
            )
        )
    return cells


def sweep_benchmark(
    cells=None,
    jobs: int = 4,
    mp_context: str | None = None,
) -> dict:
    """Measure cold-serial vs cold-parallel vs warm-cache sweep times.

    Returns the BENCH_sweep.json payload: wall-clock rows for each mode,
    the parallel speedup, the warm-rerun fraction of cold time, and a
    byte-identity check across all three merged stores (the executor's
    correctness claim, measured where its performance is measured).

    On a single-CPU host ``parallel_speedup`` is ``None``: worker
    processes time-slice one core, so the cold-parallel/cold-serial
    ratio measures scheduler overhead, not a speedup, and publishing it
    as one would be a false claim. The rows are still reported and
    ``cpu_count`` is recorded so the refusal is auditable.
    """
    if cells is None:
        cells = default_bench_cells()
    rows = []
    stores: list[bytes] = []

    def one(mode: str, run_jobs: int, cache: Path, store: Path) -> float:
        start = perf_counter()
        report = run_sweep(
            cells, jobs=run_jobs, cache_dir=cache, store_path=store,
            mp_context=mp_context,
        )
        elapsed = perf_counter() - start
        report.raise_on_failure()
        stores.append(store.read_bytes())
        rows.append(
            {
                "mode": mode,
                "jobs": run_jobs,
                "cells": len(cells),
                "cache_hits": len(report.cache_hits),
                "wall_s": round(elapsed, 4),
            }
        )
        return elapsed

    with tempfile.TemporaryDirectory(prefix="repro-sweep-bench-") as tmp:
        tmp = Path(tmp)
        serial_s = one("cold-serial", 1, tmp / "serial-cache", tmp / "serial.json")
        parallel_s = one(
            "cold-parallel", jobs, tmp / "parallel-cache", tmp / "parallel.json"
        )
        warm_s = one(
            "warm-rerun", jobs, tmp / "parallel-cache", tmp / "warm.json"
        )

    cpu_count = os.cpu_count()
    single_cpu = cpu_count is not None and cpu_count <= 1
    payload = {
        "schema": "bench-sweep/2",
        "params": {
            "cells": [cell.name for cell in cells],
            "jobs": jobs,
            "mp_context": mp_context,
            "cpu_count": cpu_count,
        },
        "rows": rows,
        "parallel_speedup": (
            None
            if single_cpu
            else (round(serial_s / parallel_s, 3) if parallel_s else None)
        ),
        "warm_fraction_of_cold": round(warm_s / serial_s, 4) if serial_s else None,
        "stores_byte_identical": len({s for s in stores}) == 1,
    }
    if single_cpu:
        payload["parallel_speedup_suppressed"] = (
            "os.cpu_count() == 1: workers time-slice a single core, so "
            "parallel wall-clock is not a speedup measurement; re-record "
            "on a multi-core host"
        )
    return payload
