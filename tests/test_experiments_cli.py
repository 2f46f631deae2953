"""Tests for the command-line experiment runner."""

import pytest

from repro.experiments.__main__ import main


def test_e1_runs_and_prints(capsys):
    assert main(["e1", "--bots", "5", "--duration", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "E1 bandwidth by policy" in out
    assert "adaptive" in out


def test_e2_accepts_counts(capsys):
    assert main(["e2", "--counts", "4,8", "--duration", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "capacity" in out


def test_e11_runs_a_shard_sweep(capsys):
    assert main(
        ["e11", "--shards", "1,2", "--bots", "6", "--duration", "4", "--seed", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "E11 shard-count scaling" in out


def test_e2_has_no_bots_option(capsys):
    """e2's fleet sizes come from --counts; a --bots would be ignored."""
    with pytest.raises(SystemExit) as exit_info:
        main(["e2", "--counts", "4,8", "--bots", "5", "--duration", "4"])
    assert exit_info.value.code == 2
    assert "--bots" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--cache-dir", "cells"], ["--warmup", "5"]])
def test_e6_takes_only_the_options_it_reads(option, capsys):
    """e6 runs one in-process cell with its own warmup, so a worker count,
    a cell cache or a warmup would be ignored."""
    with pytest.raises(SystemExit) as exit_info:
        main(["e6", "--bots", "4", *option])
    assert exit_info.value.code == 2
    assert option[0] in capsys.readouterr().err


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "(claim: up to -85%)" in out
    assert "run e1, e3, e4, e6, e7, e8a, e8b, e8c, e9 in sequence" in out


def test_telemetry_refuses_parallel_jobs(tmp_path, capsys):
    """Sweep workers record into their own hubs, so --telemetry with
    --jobs > 1 would write a near-empty stream; the parser refuses it."""
    path = tmp_path / "run.jsonl"
    with pytest.raises(SystemExit) as exit_info:
        main([
            "e3", "--bots", "4", "--duration", "3", "--seed", "3",
            "--jobs", "2", "--telemetry", str(path),
        ])
    assert exit_info.value.code == 2
    assert "--telemetry needs --jobs 1" in capsys.readouterr().err
    assert not path.exists()


TINY_ARGS = ["--bots", "4", "--duration", "3", "--seed", "3"]


@pytest.mark.parametrize(
    "command, title",
    [
        ("e3", "E3 client-observed inconsistency (4 bots)"),
        ("e4", "E4 latency (4 bots)"),
        ("e6", "E6 adaptive policy dynamics under a player burst"),
        ("e7", "E7 policy summary (4 bots)"),
        ("e8a", "E8(a) update merging ablation"),
        ("e8b", "E8(b) dyconit granularity ablation"),
        ("e8c", "E8(c) policy evaluation period ablation"),
        ("e9", "E9 faults & churn (4 bots, churn on)"),
    ],
)
def test_every_subcommand_prints_its_table(command, title, capsys):
    assert main([command, *TINY_ARGS]) == 0
    out = capsys.readouterr().out
    assert out.startswith(title)
    # A title, a header, a rule and at least one row.
    assert len(out.strip().splitlines()) >= 4


def test_all_runs_every_table_in_order(capsys):
    assert main(["all", *TINY_ARGS]) == 0
    out = capsys.readouterr().out
    banners = [line for line in out.splitlines() if line.startswith("=== ")]
    assert banners == [
        f"=== {name} ===" for name in
        ("e1", "e3", "e4", "e6", "e7", "e8a", "e8b", "e8c", "e9")
    ]
    for title in ("E1 bandwidth", "E3 ", "E4 ", "E6 ", "E7 ", "E8(a)", "E8(b)", "E8(c)", "E9 "):
        assert f"\n{title}" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["e99"])
