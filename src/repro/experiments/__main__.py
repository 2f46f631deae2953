"""Command-line experiment runner.

Regenerate any of the paper's tables/figures from a terminal::

    python -m repro.experiments e1 --bots 100 --duration 30
    python -m repro.experiments e2 --counts 50,100,150,200
    python -m repro.experiments all --bots 40 --duration 15

Each command prints the same rows the corresponding ``benchmarks/``
target asserts on (the benchmarks add the shape checks).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import figures
from repro.experiments.store import save_telemetry
from repro.telemetry import Telemetry, render_summary, set_telemetry


def _counts(text: str) -> tuple[int, ...]:
    return tuple(int(count) for count in text.split(","))


def _dynamics(bots, duration_ms, seed, audit_every_n_ticks) -> dict:
    """E6 at the CLI: a burst of twice the fleet through the middle third."""
    duration_ms = max(duration_ms, 45_000.0)
    return figures.dynamics_timeline(
        base_bots=bots,
        burst_bots=bots * 2,
        duration_ms=duration_ms,
        burst_at_ms=duration_ms / 3,
        burst_end_ms=2 * duration_ms / 3,
        seed=seed,
        audit_every_n_ticks=audit_every_n_ticks,
    )


#: The window options, flag -> ``add_argument`` keywords. Every command
#: takes --duration, --seed, --telemetry and --audit; the others only
#: where its driver reads them.
OPTIONS = {
    "--bots": dict(type=int, default=60, help="fleet size"),
    "--duration": dict(type=float, default=20.0, help="run length in simulated seconds"),
    "--warmup": dict(
        type=float, default=None,
        help="measurement warmup in simulated seconds (default: duration/3)",
    ),
    "--seed": dict(type=int, default=42),
    "--telemetry": dict(
        metavar="PATH", default=None,
        help="record an instrumented run: write a JSONL span/metric stream "
        "to PATH and a Prometheus snapshot to PATH.prom (needs --jobs 1)",
    ),
    "--jobs": dict(
        type=int, default=1, metavar="N",
        help="shard experiment cells across N worker processes "
        "(1 = in-process serial; output is byte-identical either way)",
    ),
    "--cache-dir": dict(
        metavar="DIR", default=None,
        help="content-addressed result cache: completed cells found in DIR "
        "are not re-run, and an interrupted sweep resumes from it",
    ),
    "--audit": dict(
        type=int, nargs="?", const=1, default=0, metavar="TICKS",
        help="checked mode: audit middleware invariants every TICKS ticks "
        "(bare --audit = every tick) and abort on the first violation",
    ),
}

#: What ``all`` runs, in order.
ALL = ("e1", "e3", "e4", "e6", "e7", "e8a", "e8b", "e8c", "e9")
#: Subcommand -> (help, driver).
COMMANDS = {
    "e1": ("bandwidth by policy (claim: up to -85%%)", figures.bandwidth_by_policy),
    "e2": ("player capacity sweep (claim: up to +40%%)", figures.capacity_sweep),
    "e3": ("client-observed inconsistency by policy", figures.inconsistency_by_policy),
    "e4": ("latency: network CDF + middleware queue delay", figures.latency_by_policy),
    "e6": ("adaptive policy dynamics under a player burst", _dynamics),
    "e7": ("policy summary table", figures.policy_summary_table),
    "e8a": ("ablation: update merging on/off", figures.ablation_merging),
    "e8b": ("ablation: dyconit granularity", figures.ablation_granularity),
    "e8c": ("ablation: policy evaluation period", figures.ablation_policy_period),
    "e9": ("resilience: packet loss + session churn sweep", figures.fault_churn_sweep),
    "e11": ("sharded world: shard-count scaling (S16)", figures.shard_scaling),
    "all": ("run " + ", ".join(ALL) + " in sequence", None),
}
#: The window options of the commands that do not take all of OPTIONS:
#: e2's ladder takes its fleet sizes from --counts, and e6 runs one
#: in-process cell with its own warmup.
WINDOWS = {
    "e2": tuple(flag for flag in OPTIONS if flag != "--bots"),
    "e6": ("--bots", "--duration", "--seed", "--telemetry", "--audit"),
}
#: Options beyond the window, flag -> ``add_argument`` keywords; each
#: ``dest`` is the driver keyword it fills.
EXTRAS = {
    "e2": {
        "--counts": dict(
            dest="bot_counts", type=_counts, default="50,100,150,200",
            help="comma-separated player counts to sweep",
        ),
    },
    "e11": {
        "--shards": dict(
            dest="shard_counts", type=_counts, default="1,2,4",
            help="comma-separated shard counts to sweep",
        ),
        "--movement": dict(
            dest="movement", default="gathering",
            help="workload movement model (gathering = border hotspot)",
        ),
    },
}


def _window(args, flags) -> dict:
    """The driver keywords a command's window options fill."""
    duration_ms = args.duration * 1000.0
    window = dict(duration_ms=duration_ms, seed=args.seed, audit_every_n_ticks=args.audit)
    if "--bots" in flags:
        window["bots"] = args.bots
    if "--warmup" in flags:
        warmup_ms = args.warmup * 1000.0 if args.warmup is not None else duration_ms / 3.0
        window["warmup_ms"] = warmup_ms
    if "--jobs" in flags:
        window["jobs"] = args.jobs
    if "--cache-dir" in flags:
        window["cache_dir"] = args.cache_dir
    return window


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="regenerate the Dyconits paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sub_parser = sub.add_parser(name, help=help_text)
        for flag in WINDOWS.get(name, OPTIONS):
            sub_parser.add_argument(flag, **OPTIONS[flag])
        for flag, options in EXTRAS.get(name, {}).items():
            sub_parser.add_argument(flag, **options)

    args = parser.parse_args(argv)
    if args.telemetry and getattr(args, "jobs", 1) > 1:
        parser.error(
            "--telemetry needs --jobs 1: sweep workers record into their own "
            "telemetry hubs, which never reach this process"
        )

    def run_one(name: str) -> None:
        window = _window(args, WINDOWS.get(name, OPTIONS))
        for options in EXTRAS.get(name, {}).values():
            window[options["dest"]] = getattr(args, options["dest"])
        print(COMMANDS[name][1](**window)["table"])

    hub = None
    previous_hub = None
    if args.telemetry:
        hub = Telemetry(enabled=True)
        previous_hub = set_telemetry(hub)

    try:
        if args.experiment == "all":
            for name in ALL:
                print(f"=== {name} ===")
                run_one(name)
                print()
        else:
            run_one(args.experiment)
    finally:
        if hub is not None:
            set_telemetry(previous_hub)

    if hub is not None:
        jsonl_path, prom_path = save_telemetry(args.telemetry, hub)
        print()
        print(render_summary(hub))
        print(f"\ntelemetry: wrote {jsonl_path} and {prom_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
