#!/usr/bin/env python3
"""Reachability and option census: the functions of ``src/repro`` that
no run enters, and the values each option in scope receives.

Usage: python3 scripts/census.py

Runs every non-test entry point of the repository once, each in a
subprocess whose ``PYTHONPATH`` starts with a generated
``sitecustomize.py``. That hook sets a global trace function which notes
each code object under ``src/repro`` the process enters and returns
``None``, so no line is traced. It re-installs itself in forked children
and writes its notes before ``os._exit`` as well as at exit, since
multiprocessing's forked workers end there and skip ``atexit``. Spawned
children and subprocesses inherit the environment, so the hook reaches
them too.

The notes are matched to the ``ast`` function definitions of every
module (a decorated function's code object starts at its first
decorator). The table printed at the end lists, per module, the lines
that sit in functions no run entered, then those functions with their
line counts. Everything is written to a temporary directory: ``bench/``
runs from a copy there, so its ``bench/out`` never touches the checkout.

The same hook records, on each call of a function in ``OPTION_FUNCTIONS``,
the ``repr`` of every argument and the caller's file and function, up to
``VALUE_CAP`` distinct values per parameter. An argument that is one of
the ``OPTION_CONFIGS`` dataclasses is also recorded field by field.
The second table lists every option in scope (each parameter with a
default, each config field) with its default and the values runs passed.

``scripts/run_paper_scale.py`` is not run: it calls the same
``repro.experiments.figures`` drivers as the CLI runs below, at sizes
that take minutes per group. This is a report, not a gate: it exits 0
whatever it finds, and says which runs failed.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

#: The option census's scope, as ``module path:qualified name`` under the
#: package: each function's parameters with a default ...
OPTION_FUNCTIONS = (
    "server/engine.py:GameServer.__init__",
    "server/engine.py:GameServer.connect",
    "cluster/facade.py:ShardedCluster.__init__",
    "cluster/facade.py:ShardedCluster.connect",
    "cluster/runner.py:ParallelShardRunner.__init__",
    "cluster/shard.py:build_shard",
    "cluster/shard.py:ShardServer.__init__",
    "net/transport.py:Transport.__init__",
    "net/transport.py:Transport.connect",
    "core/manager.py:DyconitSystem.__init__",
    "telemetry/hub.py:Telemetry.__init__",
    "bots/workload.py:Workload.__init__",
    "bots/workload.py:ChurnWorkload.__init__",
    "bots/bot.py:BotClient.__init__",
    "bots/bot.py:BotClient.connect",
    "experiments/runner.py:run_experiment",
    "experiments/parallel.py:run_sweep",
)
#: ... and each config dataclass's fields.
OPTION_CONFIGS = (
    "server/config.py:ServerConfig",
    "experiments/configs.py:ExperimentConfig",
    "bots/workload.py:WorkloadSpec",
    "bots/workload.py:ChurnSpec",
    "net/link.py:LinkConfig",
    "server/costmodel.py:CostCoefficients",
    "cluster/facade.py:ClientProfile",
)
#: Distinct values (and callers per value) kept per option.
VALUE_CAP = 8
#: An object's address in its ``repr``, which differs run to run.
ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")

HOOK = '''\
"""Census hook: notes each code object under the census roots entered
here, and the arguments of each call of an in-scope function."""
import atexit
import dataclasses
import json
import os
import re
import sys
import tempfile
import threading

_ROOTS = {roots!r}
_OUT = {out!r}
#: (path under a root, first line) -> label of an in-scope function.
_SCOPE = {scope!r}
#: "module.Class" -> label of an in-scope config dataclass.
_CONFIGS = {configs!r}
_CAP = {cap!r}
#: File-name prefixes a caller's location is given relative to.
_TRIM = {trim!r}
_ADDRESS = re.compile({address!r})
_seen = {{}}  # id(code) -> code, held so that no id is reused
_entered = set()
_calls = {{}}  # id(code) -> label, for the in-scope functions
_values = {{}}  # option -> {{value repr -> set of callers}}


def _trace(frame, event, arg):
    code = frame.f_code
    key = id(code)
    if key not in _seen:
        _seen[key] = code
        for root in _ROOTS:
            if code.co_filename.startswith(root):
                name = code.co_filename[len(root):]
                _entered.add((name, code.co_firstlineno, code.co_name))
                label = _SCOPE.get((name, code.co_firstlineno))
                if label is not None:
                    _calls[key] = label
                break
    label = _calls.get(key)
    if label is not None:
        _note_call(frame, label)


def _where(frame):
    if frame is None:
        return "?"
    path = frame.f_code.co_filename
    for prefix, replacement in _TRIM:
        if path.startswith(prefix):
            path = replacement + path[len(prefix):]
            break
    else:
        path = os.path.basename(path)
    return f"{{path}}:{{frame.f_code.co_name}}"


def _note_call(frame, label):
    code = frame.f_code
    caller = _where(frame.f_back)
    arguments = frame.f_locals
    for name in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]:
        if name != "self" and name in arguments:
            _note(f"{{label}}({{name}})", arguments[name], caller)


def _note(option, value, caller):
    kind = type(value)
    config = _CONFIGS.get(f"{{kind.__module__}}.{{kind.__qualname__}}")
    if config is not None and dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _note(f"{{config}}.{{field.name}}", getattr(value, field.name), option)
    try:
        text = _ADDRESS.sub("", repr(value))
    except Exception:
        text = f"<{{kind.__name__}}>"
    seen = _values.setdefault(option, {{}})
    callers = seen.get(text)
    if callers is None:
        if len(seen) > _CAP:
            return
        callers = seen[text] = set()
    if len(callers) <= _CAP:
        callers.add(caller)


def _install():
    sys.settrace(_trace)
    threading.settrace(_trace)


def _dump():
    if _entered:
        fd, path = tempfile.mkstemp(dir=_OUT, suffix=".json")
        with os.fdopen(fd, "w") as out:
            json.dump({{
                "entered": sorted(_entered),
                "values": {{
                    option: {{text: sorted(callers) for text, callers in seen.items()}}
                    for option, seen in _values.items()
                }},
            }}, out)


_os_exit = os._exit


def _exit(status):
    _dump()
    _os_exit(status)


os._exit = _exit
os.register_at_fork(after_in_child=_install)
atexit.register(_dump)
_install()
'''


@dataclass
class Module:
    """One module's census: its length and the functions no run entered."""

    path: str
    lines: int
    unreached: list[tuple[str, int]] = field(default_factory=list)
    unreached_lines: int = 0


def entry_points(work: Path) -> list[tuple[str, list[str]]]:
    """Every non-test run of the repository, as ``(label, argv)``."""
    py = sys.executable
    small = ["--duration", "4", "--seed", "3"]
    runs = [
        ("bench/run.py --quick", [py, str(work / "bench" / "run.py"), "--quick"]),
        ("experiments all", [py, "-m", "repro.experiments", "all", "--bots", "6", *small]),
        ("experiments e2", [py, "-m", "repro.experiments", "e2", "--counts", "4,8", *small]),
    ]
    for audit in ([], ["--audit"]):
        runs.append((
            " ".join(["experiments e11", *audit]),
            [py, "-m", "repro.experiments", "e11", "--shards", "1,2", "--bots", "6", *small,
             *audit],
        ))
    runs.append((
        "experiments e3 --telemetry",
        [py, "-m", "repro.experiments", "e3", "--bots", "6", *small,
         "--telemetry", str(work / "e3.jsonl")],
    ))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", [py, str(example)]))
    scripts = REPO_ROOT / "scripts"
    for store in ("memory", "sqlite"):
        runs.append((
            f"gateway_smoke --store {store}",
            [py, str(scripts / "gateway_smoke.py"), "--store", store],
        ))
    runs.append((
        "determinism_check --jobs 2",
        [py, str(scripts / "determinism_check.py"), "--jobs", "2"],
    ))
    runs.append((
        "bench_trajectory --quick --sweep --guard-parallel",
        [py, str(scripts / "bench_trajectory.py"), "--quick", "--sweep", "--guard-parallel",
         "--jobs", "2", "--out", str(work / "trajectory.json"),
         "--sweep-out", str(work / "sweep.json")],
    ))
    benchmarks = sorted(str(path) for path in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    runs.append((
        "pytest benchmarks --benchmark-disable",
        [py, "-m", "pytest", *benchmarks, "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
    ))
    return runs


def run_all(
    package: Path, runs, work: Path, roots=(), pythonpath=(), functions_in_scope=(),
    configs_in_scope=(), trim=(),
) -> tuple[set[tuple[str, int, str]], dict[str, dict[str, set[str]]], list]:
    """Run ``runs`` in ``work`` under the hook. Returns the code objects
    entered under ``package`` (or any of ``roots``, other paths to it) as
    ``(path relative to package, first line, name)``; per option of
    ``functions_in_scope`` and ``configs_in_scope`` (see :func:`scope`)
    the ``repr`` of each value passed and its callers, whose file names
    are given relative to the first matching ``(prefix, replacement)`` of
    ``trim``; and per run its label, exit code and wall seconds."""
    hook, records = work / "hook", work / "records"
    hook.mkdir(exist_ok=True)
    records.mkdir(exist_ok=True)
    prefixes = tuple(str(root) + os.sep for root in (package, *roots))
    calls, configs = scope(package, functions_in_scope, configs_in_scope)
    (hook / "sitecustomize.py").write_text(HOOK.format(
        roots=prefixes, out=str(records), scope=calls, configs=configs, cap=VALUE_CAP,
        trim=tuple(trim), address=ADDRESS.pattern,
    ))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook), *map(str, pythonpath)]),
        PYTHONPYCACHEPREFIX=str(work / "pycache"),
    )
    outcomes = []
    for label, argv in runs:
        started = time.perf_counter()
        print(f"census: {label}", file=sys.stderr, flush=True)
        done = subprocess.run(
            argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        outcomes.append((label, done.returncode, time.perf_counter() - started))
    entered: set[tuple[str, int, str]] = set()
    values: dict[str, dict[str, set[str]]] = {}
    for path in records.glob("*.json"):
        notes = json.loads(path.read_text())
        entered.update((name, first, code) for name, first, code in notes["entered"])
        for option, seen in notes["values"].items():
            merged = values.setdefault(option, {})
            for text, callers in seen.items():
                merged.setdefault(text, set()).update(callers)
    return entered, values, outcomes


def scope(package: Path, functions_in_scope, configs_in_scope) -> tuple[dict, dict]:
    """The hook's view of the option scope: ``(path, first line) ->
    label`` of each function and ``"module.Class" -> label`` of each
    config dataclass, both named ``path:qualified name`` under
    ``package``; a label is the qualified name."""
    wanted: dict[str, set[str]] = {}
    for target in functions_in_scope:
        path, __, qualname = target.partition(":")
        wanted.setdefault(path, set()).add(qualname)
    calls = {}
    for path, qualnames in wanted.items():
        tree = ast.parse((package / path).read_text())
        for qualname, __, first, __ in functions(tree):
            if qualname in qualnames:
                calls[(path, first)] = qualname
    configs = {}
    for target in configs_in_scope:
        path, __, qualname = target.partition(":")
        configs[f"{_module_name(package, path)}.{qualname}"] = qualname
    return calls, configs


def _module_name(package: Path, path: str) -> str:
    return ".".join([package.name, *Path(path).with_suffix("").parts])


@dataclass
class Option:
    """One option in scope: its default and the values runs passed, each
    with its callers (for a config field, the functions it reached)."""

    name: str
    default: str
    values: dict[str, set[str]]

    @property
    def default_only(self) -> bool:
        return bool(self.values) and set(self.values) == {self.default}


def _resolve(package: Path, target: str):
    path, __, qualname = target.partition(":")
    obj = importlib.import_module(_module_name(package, path))
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return qualname, obj


def options(package: Path, values, functions_in_scope, configs_in_scope) -> list[Option]:
    """Every option in scope, in scope order: each parameter with a
    default of the functions, then each field of the config dataclasses
    (the package must be importable)."""
    found = []
    for target in functions_in_scope:
        qualname, function = _resolve(package, target)
        for parameter in inspect.signature(function).parameters.values():
            if parameter.default is not inspect.Parameter.empty:
                name = f"{qualname}({parameter.name})"
                found.append(Option(name, _shown(parameter.default), values.get(name, {})))
    for target in configs_in_scope:
        qualname, config = _resolve(package, target)
        for spec in dataclasses.fields(config):
            if spec.default is not dataclasses.MISSING:
                default = _shown(spec.default)
            elif spec.default_factory is not dataclasses.MISSING:
                default = _shown(spec.default_factory())
            else:
                default = "(required)"
            name = f"{qualname}.{spec.name}"
            found.append(Option(name, default, values.get(name, {})))
    return found


def _shown(value) -> str:
    """A default as the hook records a value."""
    return ADDRESS.sub("", repr(value))


def functions(tree: ast.AST):
    """``(qualified name, name, first line, last line)`` of every function
    definition, the first line a decorated function's first decorator's."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                qualname = prefix + child.name
                yield qualname, child.name, first, child.end_lineno
                yield from walk(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def unreached(package: Path, entered) -> list[Module]:
    """Every module under ``package`` with the functions no run entered."""
    modules = []
    for path in sorted(package.rglob("*.py")):
        name = str(path.relative_to(package))
        text = path.read_text()
        module = Module(name, len(text.splitlines()))
        dead_lines: set[int] = set()
        for qualname, code_name, first, last in functions(ast.parse(text)):
            if (name, first, code_name) not in entered:
                module.unreached.append((qualname, last - first + 1))
                dead_lines.update(range(first, last + 1))
        module.unreached_lines = len(dead_lines)
        modules.append(module)
    return modules


def render(modules: list[Module], outcomes) -> str:
    total = sum(module.lines for module in modules)
    dead = sum(module.unreached_lines for module in modules)
    out = ["runs (exit code, wall seconds):"]
    out += [f"  {label}: {code}, {seconds:.0f} s" for label, code, seconds in outcomes]
    failed = [label for label, code, __ in outcomes if code != 0]
    if failed:
        out.append(f"FAILED runs, so the census undercounts what they reach: {failed}")
    out += [
        "",
        f"{dead} of src/repro's {total} lines sit in functions that no run enters.",
        "",
        "| module | unreached / lines |",
        "|---|---|",
    ]
    ranked = sorted(
        (module for module in modules if module.unreached_lines),
        key=lambda module: (-module.unreached_lines, module.path),
    )
    out += [f"| `{m.path}` | {m.unreached_lines} / {m.lines} |" for m in ranked]
    for module in ranked:
        out.append("")
        out.append(f"{module.path}:")
        out += [f"  {qualname} ({lines})" for qualname, lines in module.unreached]
    return "\n".join(out)


def render_options(found: list[Option]) -> str:
    """The option table: each option's default and the values and
    callers runs passed, the first few of each and their count."""
    default_only = sum(option.default_only for option in found)
    unreached = sum(not option.values for option in found)
    out = [
        f"{len(found)} options in scope: {default_only} only ever carry their default, "
        f"{unreached} no run reaches, {len(found) - default_only - unreached} take "
        "other values.",
        "",
        "| option | default | values runs passed | callers |",
        "|---|---|---|---|",
    ]
    for option in found:
        if not option.values:
            passed = "not reached"
        elif option.default_only:
            passed = "default only"
        else:
            passed = _listed(sorted(option.values), "values")
        callers = _listed(sorted(set().union(*option.values.values())), "callers")
        out.append(f"| `{option.name}` | `{_cell(option.default)}` | {passed} | {callers} |")
    return "\n".join(out)


def _listed(items: list[str], noun: str, shown: int = 4) -> str:
    """The first ``shown`` distinct cells of ``items``, then how many
    ``items`` there are in all."""
    cells = list(dict.fromkeys(_cell(item) for item in items))
    text = ", ".join(f"`{cell}`" for cell in cells[:shown])
    more = f"{len(items)}+" if len(items) > VALUE_CAP else str(len(items))
    return text if len(items) <= shown and len(cells) == len(items) else (
        f"{text}, ... ({more} {noun})"
    )


def _cell(text: str, width: int = 40) -> str:
    """``text`` fit for one table cell: no pipe, at most ``width`` long."""
    text = text.replace("|", "/").replace("`", "'")
    return text if len(text) <= width else text[: width - 3] + "..."


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        # bench/run.py writes bench/out next to itself and finds src/ as
        # its sibling: run a copy whose src/ links back to the checkout.
        shutil.copytree(REPO_ROOT / "bench", work / "bench", ignore=shutil.ignore_patterns(
            "out", "__pycache__", "tests"))
        (work / "src").symlink_to(REPO_ROOT / "src")
        copy = work / "src" / "repro"
        entered, values, outcomes = run_all(
            PACKAGE, entry_points(work), work,
            roots=[copy], pythonpath=[REPO_ROOT / "src"],
            functions_in_scope=OPTION_FUNCTIONS, configs_in_scope=OPTION_CONFIGS,
            trim=[(str(root) + os.sep, "src/repro/") for root in (copy, PACKAGE)]
            + [(str(root) + os.sep, "") for root in (work, REPO_ROOT)],
        )
    print(render(unreached(PACKAGE, entered), outcomes))
    sys.path.insert(0, str(PACKAGE.parent))
    print()
    print(render_options(options(PACKAGE, values, OPTION_FUNCTIONS, OPTION_CONFIGS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
