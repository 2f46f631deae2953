"""The reachability census (``scripts/census.py``) on a toy package: its
shape only, never its timing."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"

TOY = '''\
import functools
import os


def entered_in_child():
    return 1


@functools.lru_cache(maxsize=None)
def decorated():
    return 2


def never_entered():
    value = 3
    return value


class Holder:
    @property
    def unread(self):
        return 4


def main():
    pid = os.fork()
    if pid == 0:
        entered_in_child()
        os._exit(0)
    os.waitpid(pid, 0)
    decorated()
'''


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["census"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["census"]


@pytest.fixture(scope="module")
def toy_census(census, tmp_path_factory):
    root = tmp_path_factory.mktemp("census")
    package = root / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    work = root / "work"
    work.mkdir()
    run = [sys.executable, "-c", "import toy.mod; toy.mod.main()"]
    entered, outcomes = census.run_all(package, [("toy", run)], work, pythonpath=[root])
    (module,) = [m for m in census.unreached(package, entered) if m.path == "mod.py"]
    return module, outcomes


def test_the_run_succeeds(toy_census):
    __, outcomes = toy_census
    ((label, code, __),) = outcomes
    assert (label, code) == ("toy", 0)


def test_a_function_entered_only_in_a_forked_child_is_reached(toy_census):
    module, __ = toy_census
    assert "entered_in_child" not in dict(module.unreached)
    assert "main" not in dict(module.unreached)


def test_a_decorated_function_is_matched_by_its_first_line(toy_census):
    module, __ = toy_census
    assert "decorated" not in dict(module.unreached)


def test_a_function_no_one_enters_is_listed_with_its_line_count(toy_census):
    module, __ = toy_census
    assert module.unreached == [("never_entered", 3), ("Holder.unread", 3)]
    assert module.unreached_lines == 6
    assert module.lines == len(TOY.splitlines())


def test_the_table_names_each_unreached_function(census, toy_census):
    module, outcomes = toy_census
    table = census.render([module], outcomes)
    lines = len(TOY.splitlines())
    assert f"| `mod.py` | 6 / {lines} |" in table
    assert "  Holder.unread (3)" in table
    assert f"6 of src/repro's {lines} lines" in table
