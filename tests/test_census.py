"""The reachability and option census (``scripts/census.py``) on a toy
package: its shape only, never its timing."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "census.py"

TOY = '''\
import dataclasses
import functools
import os


@dataclasses.dataclass(frozen=True)
class Knobs:
    level: int = 1
    label: str = "plain"


def tuned(count, scale=1.0, mode="fast", knobs=None):
    return count


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
    tuned(1, scale=2.0)
    tuned(2)
    tuned(3, knobs=Knobs(level=2))
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
    entered, values, outcomes = census.run_all(
        package, [("toy", run)], work, pythonpath=[root],
        functions_in_scope=["mod.py:tuned"], configs_in_scope=["mod.py:Knobs"],
        trim=[(str(root) + os.sep, "")],
    )
    (module,) = [m for m in census.unreached(package, entered) if m.path == "mod.py"]
    sys.path.insert(0, str(root))
    try:
        found = census.options(package, values, ["mod.py:tuned"], ["mod.py:Knobs"])
    finally:
        sys.path.remove(str(root))
        for name in [name for name in sys.modules if name.split(".")[0] == "toy"]:
            del sys.modules[name]
    return module, outcomes, {option.name: option for option in found}


def test_the_run_succeeds(toy_census):
    __, outcomes, __ = toy_census
    ((label, code, __),) = outcomes
    assert (label, code) == ("toy", 0)


def test_a_function_entered_only_in_a_forked_child_is_reached(toy_census):
    module, __, __ = toy_census
    assert "entered_in_child" not in dict(module.unreached)
    assert "main" not in dict(module.unreached)


def test_a_decorated_function_is_matched_by_its_first_line(toy_census):
    module, __, __ = toy_census
    assert "decorated" not in dict(module.unreached)


def test_a_function_no_one_enters_is_listed_with_its_line_count(toy_census):
    module, __, __ = toy_census
    assert module.unreached == [("never_entered", 3), ("Holder.unread", 3)]
    assert module.unreached_lines == 6
    assert module.lines == len(TOY.splitlines())


def test_the_table_names_each_unreached_function(census, toy_census):
    module, outcomes, __ = toy_census
    table = census.render([module], outcomes)
    lines = len(TOY.splitlines())
    assert f"| `mod.py` | 6 / {lines} |" in table
    assert "  Holder.unread (3)" in table
    assert f"6 of src/repro's {lines} lines" in table


def test_a_keyword_called_with_two_values_lists_both_with_their_caller(toy_census):
    __, __, found = toy_census
    scale = found["tuned(scale)"]
    assert scale.default == "1.0"
    assert scale.values == {"1.0": {"toy/mod.py:main"}, "2.0": {"toy/mod.py:main"}}
    assert not scale.default_only


def test_a_keyword_called_only_with_its_default_is_default_only(toy_census):
    __, __, found = toy_census
    mode = found["tuned(mode)"]
    assert set(mode.values) == {"'fast'"}
    assert mode.default_only
    assert "tuned(count)" not in found  # no default: not an option


def test_a_dataclass_argument_is_recorded_field_by_field(toy_census):
    __, __, found = toy_census
    assert set(found["tuned(knobs)"].values) == {"None", "Knobs(level=2, label='plain')"}
    level, label = found["Knobs.level"], found["Knobs.label"]
    assert level.default == "1" and set(level.values) == {"2"}
    assert level.values["2"] == {"tuned(knobs)"}
    assert not level.default_only
    assert set(label.values) == {"'plain'"} and label.default_only


def test_the_option_table_names_each_option(census, toy_census):
    __, __, found = toy_census
    table = census.render_options(list(found.values()))
    assert "5 options in scope: 2 only ever carry their default, 0 no run reaches" in table
    assert "| `tuned(mode)` | `'fast'` | default only | `toy/mod.py:main` |" in table
    assert "| `Knobs.level` | `1` | `2` | `tuned(knobs)` |" in table
