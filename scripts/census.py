#!/usr/bin/env python3
"""Reachability census: the functions of ``src/repro`` that no run enters.

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

``scripts/run_paper_scale.py`` is not run: it calls the same
``repro.experiments.figures`` drivers as the CLI runs below, at sizes
that take minutes per group. This is a report, not a gate: it exits 0
whatever it finds, and says which runs failed.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

HOOK = '''\
"""Census hook: notes each code object under the census roots entered here."""
import atexit
import os
import sys
import tempfile
import threading

_ROOTS = {roots!r}
_OUT = {out!r}
_seen = {{}}  # id(code) -> code, held so that no id is reused
_entered = set()


def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) not in _seen:
        _seen[id(code)] = code
        for root in _ROOTS:
            if code.co_filename.startswith(root):
                name = code.co_filename[len(root):]
                _entered.add((name, code.co_firstlineno, code.co_name))
                break


def _install():
    sys.settrace(_trace)
    threading.settrace(_trace)


def _dump():
    if _entered:
        fd, path = tempfile.mkstemp(dir=_OUT, suffix=".txt")
        with os.fdopen(fd, "w") as out:
            out.writelines(f"{{n}}\\t{{line}}\\t{{code}}\\n" for n, line, code in _entered)


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
    package: Path, runs, work: Path, roots=(), pythonpath=()
) -> tuple[set[tuple[str, int, str]], list[tuple[str, int, float]]]:
    """Run ``runs`` in ``work`` under the hook. Returns the code objects
    entered under ``package`` (or any of ``roots``, other paths to it) as
    ``(path relative to package, first line, name)``, and per run its
    label, exit code and wall seconds."""
    hook, records = work / "hook", work / "records"
    hook.mkdir(exist_ok=True)
    records.mkdir(exist_ok=True)
    prefixes = tuple(str(root) + os.sep for root in (package, *roots))
    (hook / "sitecustomize.py").write_text(HOOK.format(roots=prefixes, out=str(records)))
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
    entered = set()
    for path in records.glob("*.txt"):
        for line in path.read_text().splitlines():
            name, first, code = line.split("\t")
            entered.add((name, int(first), code))
    return entered, outcomes


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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        # bench/run.py writes bench/out next to itself and finds src/ as
        # its sibling: run a copy whose src/ links back to the checkout.
        shutil.copytree(REPO_ROOT / "bench", work / "bench", ignore=shutil.ignore_patterns(
            "out", "__pycache__", "tests"))
        (work / "src").symlink_to(REPO_ROOT / "src")
        entered, outcomes = run_all(
            PACKAGE, entry_points(work), work,
            roots=[work / "src" / "repro"], pythonpath=[REPO_ROOT / "src"],
        )
    print(render(unreached(PACKAGE, entered), outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
