"""End-to-end telemetry: instrumented server runs, decision log, CLI."""

import json

from repro.core.bounds import Bounds
from repro.experiments.__main__ import main
from repro.experiments.configs import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.store import save_telemetry
from repro.policies.fixed import FixedBoundsPolicy
from repro.server.config import ServerConfig
from repro.server.engine import GameServer
from repro.sim.simulator import Simulation
from repro.telemetry import Telemetry
from repro.world.world import World


def run_instrumented_server(telemetry: Telemetry, duration_ms: float = 2_000.0):
    sim = Simulation(telemetry=telemetry)
    server = GameServer(
        sim,
        world=World(seed=7),
        config=ServerConfig(seed=7, mob_count=4),
        policy=FixedBoundsPolicy(Bounds(5.0, 500.0)),
        telemetry=telemetry,
    )
    server.start()
    server.connect("alice", lambda delivered: None)
    server.connect("bob", lambda delivered: None)
    sim.run_until(duration_ms)
    return server


def test_server_emits_tick_phase_spans_and_counters():
    telemetry = Telemetry(enabled=True)
    run_instrumented_server(telemetry)
    names = set(telemetry.span_names())
    assert {"tick.input", "tick.flush", "tick.policy", "tick.simulate"} <= names
    snapshot = telemetry.snapshot()
    assert snapshot["server_ticks_total"] > 0
    assert snapshot["dyconit_commits_total"] > 0
    assert snapshot["link_packets_sent_total"] > 0
    assert snapshot["sim_events_dispatched_total"] > 0
    # Spans are stamped with simulated time, not wall time.
    assert any(span.sim_time > 0 for span in telemetry.spans)


def test_disabled_telemetry_server_records_nothing():
    telemetry = Telemetry(enabled=False)
    run_instrumented_server(telemetry)
    assert telemetry.spans == []
    assert telemetry.snapshot() == {}


def test_server_logs_middleware_decisions_on_its_hub():
    telemetry = Telemetry(enabled=True)
    server = run_instrumented_server(telemetry)
    flush_events = [e for e in telemetry.events if e.kind == "trace.flush"]
    assert flush_events
    # One event and one count per flush the middleware made.
    snapshot = telemetry.snapshot()
    assert len(flush_events) == snapshot["trace_events_total{kind=flush}"]
    assert len(flush_events) == server.dyconits.stats.flushes
    assert {"dyconit", "subscriber", "detail"} == set(dict(flush_events[0].fields))


def test_run_experiment_with_explicit_hub():
    telemetry = Telemetry(enabled=True)
    config = ExperimentConfig(
        name="tiny", policy="adaptive", bots=3,
        duration_ms=3_000.0, warmup_ms=1_000.0, seed=5,
    )
    result = run_experiment(config, telemetry=telemetry)
    assert result.tick_duration.count > 0
    run_spans = [span for span in telemetry.spans if span.name == "experiment.run"]
    assert len(run_spans) == 1
    assert dict(run_spans[0].labels)["policy"] == "adaptive"


def test_save_telemetry_writes_both_artifacts(tmp_path):
    telemetry = Telemetry(enabled=True)
    telemetry.counter("c").increment()
    jsonl_path, prom_path = save_telemetry(tmp_path / "run.jsonl", telemetry)
    assert jsonl_path.exists() and prom_path.exists()
    assert prom_path.name == "run.jsonl.prom"
    assert "repro_c 1" in prom_path.read_text()


def test_cli_telemetry_flag_emits_artifacts(tmp_path, capsys):
    out_path = tmp_path / "e1.jsonl"
    assert main(
        ["e1", "--bots", "4", "--duration", "4", "--seed", "3",
         "--telemetry", str(out_path)]
    ) == 0
    captured = capsys.readouterr().out
    assert "Tick-phase profile" in captured
    assert "telemetry: wrote" in captured
    lines = out_path.read_text().splitlines()
    assert json.loads(lines[0])["type"] == "meta"
    assert any(json.loads(line)["type"] == "span" for line in lines[1:50])
    prom_text = (tmp_path / "e1.jsonl.prom").read_text()
    assert "repro_dyconit_commits_total" in prom_text
    assert "repro_span_duration_ms" in prom_text

    # The ambient hub is restored afterwards: a following run is clean.
    from repro.telemetry import NULL_TELEMETRY, get_telemetry

    assert get_telemetry() is NULL_TELEMETRY
