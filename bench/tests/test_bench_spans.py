"""Span arithmetic and patching of the tracer."""

import multiprocessing.connection

from repro.sim.simulator import Simulation
from spans import SPAN_TARGETS, Tracer, fold


def test_self_time_is_duration_minus_children():
    # root 0..100 { a 10..40 { b 20..30 }, c 50..70 }, listed as they end.
    ended = [(2, 20, 30), (1, 10, 40), (3, 50, 70), (0, 0, 100)]
    parents = [None] * 4
    rows = {index: (duration, own) for __, index, duration, own in fold(ended, parents)}
    assert rows == {2: (10, 10), 1: (30, 20), 3: (20, 20), 0: (100, 50)}
    assert parents == [1, 3, 3, None]
    assert sum(own for __, own in rows.values()) == 100


def test_recursive_span_counts_its_self_time_once():
    # f 0..100 calls f 10..60, which calls g 20..30.
    ended = [(1, 20, 30), (0, 10, 60), (0, 0, 100)]
    own = [row[3] for row in fold(ended)]
    assert own == [10, 40, 50]
    assert sum(own) == 100


def test_siblings_do_not_claim_each_other():
    ended = [(1, 0, 10), (1, 10, 20), (1, 20, 30)]
    assert [row[3] for row in fold(ended)] == [10, 10, 10]


class _Toy:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1


def _toy_tracer() -> Tracer:
    targets = {
        "toy.outer": (f"{__name__}:_Toy.outer",),
        "toy.inner": (f"{__name__}:_Toy.inner",),
        "toy.gone": (f"{__name__}:_Toy.no_such_method", "no_such_module:thing"),
    }
    return Tracer(targets)


def test_window_aggregates_and_missing_target(capsys):
    tracer = _toy_tracer()
    tracer.install()
    try:
        assert "toy.gone" in tracer.missing
        toy = _Toy()
        toy.inner()  # between windows: must not be counted
        for __ in range(2):
            tracer.begin_window()
            assert toy.outer() == 2
            tracer.end_window(wall_ms=1.0)
    finally:
        tracer.uninstall()
    table = tracer.per_tick(count_windows=60)
    assert table["toy.outer"]["calls"] == 1.0
    assert table["toy.inner"]["calls"] == 2.0
    assert table["toy.gone"] == {"calls": None, "self_ms": None, "total_ms": None}
    outer, inner = table["toy.outer"], table["toy.inner"]
    assert abs(outer["self_ms"] + inner["self_ms"] - outer["total_ms"]) < 1e-9
    assert "toy.gone" in capsys.readouterr().err
    kept = tracer.kept_windows()
    assert [entry["window"] for entry in kept] == [0, 1]
    spans = kept[0]["spans"]
    assert [span["span"] for span in spans] == ["toy.inner", "toy.inner", "toy.outer"]
    assert [span["parent"] for span in spans] == [2, 2, None]


def test_uninstall_restores_every_attribute():
    original = Simulation.run_until
    own_before = "send" in vars(multiprocessing.connection.Connection)
    tracer = Tracer()
    tracer.install()
    assert Simulation.run_until is not original
    assert Simulation.run_until.__wrapped__ is original
    tracer.uninstall()
    assert Simulation.run_until is original
    # Connection.send lives on a base class: the shadow must be deleted,
    # not replaced by a copy of the base function.
    assert ("send" in vars(multiprocessing.connection.Connection)) == own_before
    assert not tracer.missing, f"span targets gone at HEAD: {tracer.missing}"


def test_every_span_target_resolves_at_head():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == set()
    assert len(SPAN_TARGETS) == len(tracer.names)
