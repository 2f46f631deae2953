#!/usr/bin/env python3
"""Wall-clock per simulated tick, end to end and layer by layer.

    python3 bench/run.py                      every workload, untraced then traced
    python3 bench/run.py --quick              the same on 8 bots, well under a minute
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                              one invocation (the driver's form)

One invocation measures one workload on one seed for ``--seconds`` of wall
time, split over trials that each run in a fresh subprocess of their own
process group. ``--trace 0`` runs three untraced trials and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced trial and
reports the per-layer metrics. The last line of standard output is one JSON
object; the exit code is non-zero when an output check fails. See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

from combine import determinism_failures, end_to_end
from metrics import END_TO_END, PER_LAYER
from speed import window_factors

#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 15.0
QUICK_SECONDS = 2.0
DEFAULT_TRIALS = 3
#: Trial k of ``--seed S`` runs the program on seed ``S * 1000 + k``.
SEEDS_PER_INVOCATION = 1000

#: A trial is killed after this many times its recorded baseline duration
#: (``baseline.json``: set-up plus its share of the seconds).
WATCHDOG_FACTOR = 5.0
#: The driver allows an invocation 180 s; every trial must be over by then.
INVOCATION_BUDGET_S = 170.0

UNITS = {name: unit for name, unit, *__ in (*END_TO_END, *PER_LAYER)}

#: The traced trial must account for its own time: the spans' self times,
#: root included, add up to the mean window wall within this share.
ACCOUNTING_TOLERANCE = 0.02


def baseline_setup_s(workload: str) -> float:
    try:
        with open(os.path.join(BENCH_DIR, "baseline.json")) as source:
            return float(json.load(source)["workloads"][workload]["setup_s"]["value"])
    except (OSError, KeyError, ValueError):
        return 10.0


def mean_window_at_reference(trial: dict, windows: int) -> float:
    """Mean of a trial's first ``windows`` windows, at reference speed."""
    factors = window_factors(trial["probes"], windows)
    return sum(map(operator.mul, trial["wall_ms"], factors)) / windows


def spawn_trial(spec: dict, timeout_s: float) -> dict:
    """Run one trial in its own process group; a hang ends as a failed
    trial, with the whole group (stray shard workers included) killed."""
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--trial", json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        start_new_session=True,
    )
    error = None
    try:
        output, __ = process.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        error = f"watchdog: no result after {timeout_s:.0f} s"
        output = ""
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
    if error is None and process.returncode != 0:
        error = f"trial exited with code {process.returncode}"
    lines = output.strip().splitlines()
    if error is None:
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            error = "trial printed no result"
    return {"error": error, "windows": 0, "checks": {}, "traced": spec["traced"]}


def run_invocation(
    workload: str, seed: int, seconds: float, traced: bool, trials: int, bots: int | None
) -> dict:
    """All trials of one (workload, seed); returns the invocation record."""
    started = time.perf_counter()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "loadavg": os.getloadavg()[0],
    }
    # (traced, seconds, the seed the program sees). Untraced trials each get
    # a seed of their own; the traced trial replays the untraced one before it.
    base = seed * SEEDS_PER_INVOCATION
    plan = (
        [(False, seconds / 3.0, base), (True, seconds * 2.0 / 3.0, base)]
        if traced
        else [(False, seconds / trials, base + trial) for trial in range(trials)]
    )
    setup_allowance = baseline_setup_s(workload)
    results = []
    for trial_traced, trial_seconds, trial_seed in plan:
        spec = {
            "workload_name": workload,
            "seed": trial_seed,
            "seconds": trial_seconds,
            "traced": trial_traced,
            "bots": bots,
            "trace_path": os.path.join(OUT_DIR, f"{workload}.trace.json"),
        }
        left = INVOCATION_BUDGET_S - (time.perf_counter() - started)
        watchdog = WATCHDOG_FACTOR * (setup_allowance + trial_seconds)
        results.append(spawn_trial(spec, max(1.0, min(left, watchdog))))

    failures = []
    attempted = failed = 0
    for number, result in enumerate(results, start=1):
        bad = [name for name, passed in result["checks"].items() if not passed]
        if result["error"]:
            # The window in flight is the one that did not complete.
            attempted += result["windows"] + 1
            failed += 1
            failures.append(f"trial {number}: {result['error']}")
        else:
            attempted += result["windows"]
        if bad:
            # A trial whose output check fails counts all its windows failed.
            failed += result["windows"]
            failures.append(f"trial {number}: failed checks {', '.join(bad)}")
    complete = [result for result in results if not result["error"]]
    if traced and len(complete) > 1:
        failures += determinism_failures(complete)

    metrics: dict[str, float | None] = {}
    untraced = [result for result in complete if not result["traced"]]
    if not traced and untraced:
        metrics, record["info"] = end_to_end(untraced)
    traced_trial = next((result for result in complete if result["traced"]), None)
    if traced and traced_trial is not None and untraced:
        metrics = dict(traced_trial["layers"])
        # Both trials at reference speed, over the windows both reached.
        shared = min(traced_trial["windows"], untraced[0]["windows"])
        metrics["trace.overhead_frac"] = (
            mean_window_at_reference(traced_trial, shared)
            / mean_window_at_reference(untraced[0], shared)
            - 1.0
        )
        whole_mean = mean_window_at_reference(traced_trial, traced_trial["windows"])
        accounted = traced_trial["span_self_ms_sum"] / whole_mean
        record["info"] = {
            "windows": traced_trial["windows"],
            "traced_mean_window_ms": whole_mean,
            "span_self_share_of_wall": accounted,
        }
        if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
            failures.append(
                f"the spans' self times add up to {accounted:.3f} of the window wall"
            )

    # Report in the order of the tables (and of BENCHMARK.json).
    table = PER_LAYER if traced else END_TO_END
    if metrics:
        metrics = {name: metrics[name] for name, *__ in table}

    record.update(
        correct=not failures,
        failures=failures,
        attempted=max(1, attempted),
        failed=failed,
        metrics=metrics,
        state_digests=[result.get("state_digest") for result in results],
        wall_s=time.perf_counter() - started,
    )
    return record


def print_record(record: dict) -> None:
    kind = "traced" if record["traced"] else "untraced"
    print(
        f"== {record['workload']}  seed {record['seed']}  {kind}  "
        f"ops {record['attempted']}  failed_ops {record['failed']}  state_digest "
        + " ".join((digest or "-")[:12] for digest in record["state_digests"])
    )
    info = record.get("info", {})
    for name, value in record["metrics"].items():
        shown = "null" if value is None else f"{value:.4f}"
        line = f"  {name:<52} {shown:>14} {UNITS[name]}"
        if name in info.get("per_trial", {}):
            trials = " ".join(f"{each:.3f}" for each in info["per_trial"][name])
            line += f"   trials [{trials}] spread {info['spread'][name]:.1%}"
        print(line)
    for key, value in info.items():
        if key not in ("per_trial", "spread"):
            print(f"  ({key} {json.dumps(value, default=float)})")
    if record["traced"] and record["metrics"]:
        shares = sorted(
            (
                (value, name[: -len(".self_ms_per_tick")])
                for name, value in record["metrics"].items()
                if name.endswith(".self_ms_per_tick") and value
            ),
            reverse=True,
        )
        whole = sum(value for value, __ in shares)
        top = "  ".join(f"{name} {value / whole:.0%}" for value, name in shares[:8])
        print(f"  (self-time shares: {top})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def result_line(record: dict) -> str:
    """The one JSON object the driver reads. It wants numbers: a span whose
    target is gone (``null`` everywhere else) is 0 here, with a warning."""
    metrics = {}
    for name, value in record["metrics"].items():
        if value is None:
            print(f"warning: {name} has no value (span target gone)", file=sys.stderr)
            value = 0.0
        metrics[name] = {"value": value, "unit": UNITS[name]}
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str]) -> int:
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench/run.py: nothing to measure: no {SRC_DIR}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from workloads import QUICK_BOTS, WORKLOADS

    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--trials", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trial", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.trial is not None:
        from trial import run_trial

        print(json.dumps(run_trial(**json.loads(args.trial))))
        return 0

    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    trials = args.trials or (1 if args.quick else DEFAULT_TRIALS)
    if args.workload:
        names = [args.workload]
    bots = QUICK_BOTS if args.quick else None
    traces = [bool(args.trace)] if args.trace is not None else [False, True]

    records = []
    for name in names:
        for traced in traces:
            record = run_invocation(name, args.seed, seconds, traced, trials, bots)
            print_record(record)
            records.append(record)

    import numpy

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.json"), "w") as out:
        json.dump(
            {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "quick": args.quick,
                "invocations": records,
            },
            out,
            indent=1,
        )
    if len(records) == 1:
        print(result_line(records[0]))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
