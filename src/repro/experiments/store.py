"""Persisting experiment results.

EXPERIMENTS.md is regenerated from saved runs; this module serializes
:class:`~repro.experiments.runner.ExperimentResult` to JSON and back so a
long paper-scale run can be archived and re-rendered without re-running.

All writes are **atomic**: the payload lands in a same-directory temp
file which is then ``os.replace``d over the destination, so a crash or
kill mid-write leaves either the previous store or the new one — never a
truncated JSON file. The parallel sweep executor
(:mod:`repro.experiments.parallel`) leans on this for crash-resume.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from repro.experiments.configs import ExperimentConfig, config_from_dict, config_to_dict
from repro.experiments.runner import ExperimentResult
from repro.metrics.summary import Summary


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp file + rename).

    The temp file lives in the destination directory so the final
    ``os.replace`` stays on one filesystem (rename atomicity); on any
    error the temp file is removed rather than left to shadow the store.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "w") as tmp_file:
            tmp_file.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


#: Resolved field types of :class:`ExperimentResult` (its annotations
#: are strings under ``from __future__ import annotations``).
_FIELD_TYPES = get_type_hints(ExperimentResult)
_TIMELINE = list[tuple[float, float]]


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-safe dictionary of one experiment result, keyed by field in
    declaration order.

    The config's nested value objects (BehaviorMix, CostCoefficients,
    Bounds, ...) become plain dicts; summaries take their ``as_dict``
    layout.
    """
    payload = {}
    for spec in fields(ExperimentResult):
        value = getattr(result, spec.name)
        if isinstance(value, ExperimentConfig):
            value = config_to_dict(value)
        elif isinstance(value, Summary):
            value = value.as_dict()
        payload[spec.name] = value
    return payload


def _summary_from_dict(data: dict) -> Summary:
    return Summary(
        count=int(data["count"]),
        mean=data["mean"],
        minimum=data["min"],
        p50=data["p50"],
        p95=data["p95"],
        p99=data["p99"],
        maximum=data["max"],
    )


def result_from_dict(data: dict) -> ExperimentResult:
    """Rebuild a result (inverse of :func:`result_to_dict`).

    A field missing from an older store — the fault/churn counters and
    the tick timeline predate S13, the cluster counters S16 — keeps its
    dataclass default, i.e. a single-server, fault-free shape.
    """
    values = {}
    for spec in fields(ExperimentResult):
        if spec.name not in data:
            continue
        value = data[spec.name]
        kind = _FIELD_TYPES[spec.name]
        if kind is ExperimentConfig:
            value = config_from_dict(value)
        elif kind is Summary:
            value = _summary_from_dict(value)
        elif kind == _TIMELINE:
            value = [tuple(point) for point in value]
        values[spec.name] = value
    return ExperimentResult(**values)


def save_results(path: str | Path, results: dict[str, ExperimentResult]) -> None:
    """Atomically write a named collection of results as JSON."""
    payload = {name: result_to_dict(result) for name, result in results.items()}
    atomic_write_text(path, json.dumps(payload, indent=2, default=_jsonify))


def save_telemetry(path: str | Path, telemetry) -> tuple[Path, Path]:
    """Archive a run's telemetry next to its JSON results.

    Writes the JSONL span/metric stream to ``path`` and a Prometheus
    text snapshot to ``path`` with a ``.prom`` suffix appended; returns
    both paths.
    """
    from repro.telemetry.exporters import export_jsonl, export_prometheus

    jsonl_path = Path(path)
    prom_path = jsonl_path.with_suffix(jsonl_path.suffix + ".prom")
    # A missing parent must not discard the run's telemetry after the
    # (possibly long) run already completed.
    jsonl_path.parent.mkdir(parents=True, exist_ok=True)
    export_jsonl(telemetry, jsonl_path)
    export_prometheus(telemetry, prom_path)
    return jsonl_path, prom_path


def load_results(path: str | Path) -> dict[str, ExperimentResult]:
    payload = json.loads(Path(path).read_text())
    return {name: result_from_dict(data) for name, data in payload.items()}


def _jsonify(value):
    if isinstance(value, float):
        return value
    if hasattr(value, "as_dict"):
        return value.as_dict()
    raise TypeError(f"cannot serialize {type(value).__name__}")
