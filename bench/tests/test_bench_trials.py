"""Whole trials in subprocesses: tracing is invisible, hangs end as failures."""

import os
import time

import pytest
import run
from combine import determinism_failures
from workloads import WORKLOADS


def _spec(workload: str, traced: bool, seed: int = 5, seconds: float = 0.8) -> dict:
    return {
        "workload_name": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "bots": 6,
        "trace_path": None,
    }


@pytest.mark.parametrize("workload", [each.name for each in WORKLOADS])
def test_traced_trial_replays_its_untraced_twin(workload):
    untraced = run.spawn_trial(_spec(workload, traced=False), timeout_s=60)
    traced = run.spawn_trial(_spec(workload, traced=True), timeout_s=60)
    for trial in (untraced, traced):
        assert trial["error"] is None
        assert all(trial["checks"].values()), trial["checks"]
        assert trial["windows"] >= 40
    assert traced["state_digest"] == untraced["state_digest"]
    assert determinism_failures([untraced, traced]) == []
    layers = traced["layers"]
    assert layers["sim.run_until.calls_per_tick"] == 1.0
    assert layers["bots.on_packet.calls_per_tick"] == layers["net.packets_per_tick"]
    if workload == "vanilla-hotspot":
        assert not any(
            value for name, value in layers.items() if name.startswith(("core.", "backends."))
        )
    if workload != "adaptive-par2":
        assert not any(
            value
            for name, value in layers.items()
            if name.startswith("cluster.") and "parent_cpu" not in name
        )
        assert layers["net.transport.send.calls_per_tick"] == layers["net.packets_per_tick"]
    else:
        assert layers["cluster.ipc.recv.self_ms_per_tick"] > 0
    if workload == "adaptive-sqlite":
        assert layers["backends.commit.calls_per_tick"] > 0


def _trial_processes(marker: str) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as source:
                if marker.encode() in source.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def test_watchdog_kills_the_whole_group():
    # Long enough that the shard workers exist when the watchdog fires.
    spec = _spec("adaptive-par2", traced=False, seed=987654, seconds=30.0)
    started = time.perf_counter()
    result = run.spawn_trial(spec, timeout_s=1.5)
    assert time.perf_counter() - started < 10
    assert result["error"].startswith("watchdog")
    assert result["windows"] == 0
    time.sleep(0.2)
    assert _trial_processes('"seed": 987654') == []
