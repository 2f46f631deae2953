"""BENCHMARK.json, the metric tables and the printed output agree."""

import json
import os
import re
import subprocess
import sys

import pytest
from conftest import BENCH_DIR, ROOT_DIR
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as source:
        return json.load(source)


def test_names_and_units_are_well_formed():
    names = [row[0] for row in (*END_TO_END, *PER_LAYER)] + [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for __, unit, better, *__ in (*END_TO_END, *PER_LAYER):
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")
    for __, __, __, bound in END_TO_END:
        assert 0 < bound <= 0.25
    for workload in WORKLOADS:
        assert "\n" not in workload.why and len(workload.why) <= 200


def test_benchmark_json_matches_the_tables(benchmark_json):
    import run

    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark_json["command"] == ["python3", "bench/run.py"]
    assert benchmark_json["paths"] == ["bench"]
    assert benchmark_json["run_seconds"] == run.DEFAULT_SECONDS
    assert benchmark_json["workloads"] == [
        {"name": workload.name, "why": workload.why} for workload in WORKLOADS
    ]
    assert benchmark_json["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
    ]
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert max(row["bound"] for row in benchmark_json["end_to_end"]) == next(
        row["bound"] for row in benchmark_json["end_to_end"] if row["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json_name_for_name(benchmark_json, trace):
    completed = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"), "--quick",
            "--workload", "adaptive-hotspot", "--seed", "3", "--seconds", "0.6",
            "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT_DIR,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = benchmark_json["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [row["name"] for row in expected]
    for row in expected:
        metric = result["metrics"][row["name"]]
        assert metric["unit"] == row["unit"]
        assert isinstance(metric["value"], (int, float))
    # Every name is also printed, with its unit, in the readable part.
    for row in expected:
        assert re.search(
            rf"^  {re.escape(row['name'])} +\S+ {re.escape(row['unit'])}( |$)",
            completed.stdout, re.MULTILINE,
        ), row["name"]
