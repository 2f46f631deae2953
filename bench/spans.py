"""Span tracing from outside the program.

Before a traced trial builds any object, :meth:`Tracer.install` replaces
the public functions named in :data:`SPAN_TARGETS` with timing wrappers.
Each call is one span: name, start and end; every span of one 50 ms window
shares the window index. A wrapper does nothing but append its span to a
list as the call returns, which keeps tracing cheap where it is hot (five
spans per packet). When the window is over — outside the timed region —
the list is folded into per-(window, span) calls, total ns and self ns, and
the list itself is kept for the first few and the slowest few windows.
Everything stays in memory until the trial ends.

A span's *self* time is its duration minus the part of that interval its
child spans cover. Spans nest strictly (they are function calls on one
thread) and are listed as they end, children before their parent, so a
span's children are the not-yet-claimed spans that started after it did:
that also names the span that caused each span.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

#: span name -> the functions it times, as ``module:Class.attribute``.
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "sim.run_until": ("repro.sim.simulator:Simulation.run_until",),
    "bots.act": ("repro.bots.bot:BotClient.act",),
    "bots.on_packet": ("repro.bots.bot:BotClient.on_packet",),
    "server.tick_once": ("repro.server.engine:GameServer.tick_once",),
    "server.send_packets": ("repro.server.engine:GameServer.send_packets",),
    "server.codec.encode": ("repro.server.codec:SessionCodec.encode",),
    "server.interest.refresh": ("repro.server.interest:InterestManager.refresh",),
    "server.interest.on_entity_crossed": (
        "repro.server.interest:InterestManager.on_entity_crossed",
    ),
    "world.move_entity": ("repro.world.world:World.move_entity",),
    "world.set_block": ("repro.world.world:World.set_block",),
    "world.get_chunk": ("repro.world.world:World.get_chunk",),
    "core.commit": ("repro.core.manager:DyconitSystem.commit",),
    "core.commit_many": ("repro.core.manager:DyconitSystem.commit_many",),
    "core.tick": ("repro.core.manager:DyconitSystem.tick",),
    "core.evaluate_policy": ("repro.core.manager:DyconitSystem.evaluate_policy",),
    "core.notify_subscriber_moved": (
        "repro.core.manager:DyconitSystem.notify_subscriber_moved",
    ),
    "core.subscribe": ("repro.core.manager:DyconitSystem.subscribe",),
    "core.unsubscribe": ("repro.core.manager:DyconitSystem.unsubscribe",),
    "core.set_bounds": ("repro.core.manager:DyconitSystem.set_bounds",),
    # The Subscriber.deliver callback; see Tracer._deliver_hook.
    "core.deliver": ("repro.core.manager:DyconitSystem.register_subscriber",),
    "net.transport.send": ("repro.net.transport:Transport.send",),
    "net.link.transmit": ("repro.net.link:ClientLink.transmit",),
    # The DyconitStateHandle / subscription-view surface on the classes the
    # sqlite store returns (the memory store returns repro.core's own
    # Dyconit, whose time belongs to core.*). A workload on another
    # persistent store adds that store's classes here.
    "backends.commit": ("repro.backends.sqlite_store:SQLiteDyconitState.commit",),
    "backends.drain": ("repro.backends.sqlite_store:SQLiteSubscriptionView.drain",),
    "backends.bound_check": (
        "repro.backends.sqlite_store:SQLiteSubscriptionView.tripped_dimension",
    ),
    "backends.subscribe": ("repro.backends.sqlite_store:SQLiteDyconitState.subscribe",),
    "backends.unsubscribe": (
        "repro.backends.sqlite_store:SQLiteDyconitState.unsubscribe",
    ),
    "backends.set_bounds": ("repro.backends.sqlite_store:SQLiteDyconitState.set_bounds",),
    # Parent side only: forked shard workers uninstall the tracer. recv's
    # self time is the parent waiting on its workers.
    "cluster.ipc.send": ("multiprocessing.connection:Connection.send",),
    "cluster.ipc.recv": ("multiprocessing.connection:Connection.recv",),
    "cluster.bus.take_round": ("repro.cluster.bus:InterShardBus.take_round",),
}

#: Spans that also report their total (inclusive) time per tick.
TOTAL_SPANS = (
    "server.tick_once",
    "world.move_entity",
    "core.commit_many",
    "core.tick",
    "net.transport.send",
)

#: Counted, not timed: events pushed on the simulation's queue.
EVENT_PUSH_TARGET = "repro.sim.events:EventQueue.push"

SPAN_NAMES = tuple(SPAN_TARGETS)

#: Full span lists are kept for this many windows from the start of the
#: steady phase and for this many of the slowest windows.
KEEP_FIRST = 3
KEEP_SLOWEST = 3


def _resolve(target: str):
    """``(owner, attribute name, function)`` of a ``module:Class.attr``."""
    module_name, __, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute, getattr(owner, attribute)


def fold(ended: list[tuple[int, int, int]], parents: list | None = None):
    """Yield ``(position, span index, duration ns, self ns)`` for spans
    listed as ``(span index, start ns, end ns)`` in the order they ended.

    With ``parents`` (a list as long as ``ended``), also store at each
    span's position the position of the span that encloses it.
    """
    unclaimed: list[tuple[int, int, int]] = []  # (start, duration, position)
    for position, (index, start, end) in enumerate(ended):
        duration = end - start
        covered = 0
        while unclaimed and unclaimed[-1][0] >= start:
            __, child_duration, child = unclaimed.pop()
            covered += child_duration
            if parents is not None:
                parents[child] = position
        unclaimed.append((start, duration, position))
        yield position, index, duration, duration - covered


class Tracer:
    def __init__(self, span_targets: dict[str, tuple[str, ...]] | None = None) -> None:
        self.span_targets = SPAN_TARGETS if span_targets is None else span_targets
        self.names = tuple(self.span_targets)
        #: Spans none of whose targets exist any more: reported as null.
        self.missing: set[str] = set()
        #: Spans ended in the current window: (span index, start ns, end ns).
        self._ended: list[tuple[int, int, int]] = []
        self._pushed = [0]
        self._pushed_before = 0
        self._count_pushes = True
        self._patches: list[tuple[object, str, object, bool]] = []
        #: Per steady window: (calls, total ns, self ns) per span index, and
        #: the events pushed on the simulation's queue.
        self.windows: list[tuple[list[int], list[int], list[int], int]] = []
        self._kept: dict[int, tuple[float, list]] = {}

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def install(self) -> None:
        for index, name in enumerate(self.names):
            found = False
            for target in self.span_targets[name]:
                try:
                    owner, attribute, function = _resolve(target)
                except (ImportError, AttributeError) as error:
                    print(
                        f"warning: span {name}: target {target} is gone ({error})",
                        file=sys.stderr,
                    )
                    continue
                found = True
                if name == "core.deliver":
                    wrapper = self._deliver_hook(function, index)
                else:
                    wrapper = self._wrap(function, index)
                self._patch(owner, attribute, wrapper)
            if not found:
                self.missing.add(name)
        try:
            owner, attribute, function = _resolve(EVENT_PUSH_TARGET)
        except (ImportError, AttributeError) as error:
            print(f"warning: {EVENT_PUSH_TARGET} is gone ({error})", file=sys.stderr)
            self._count_pushes = False
        else:
            self._patch(owner, attribute, self._count(function, self._pushed))
        # A forked shard worker inherits the patched classes; it must run
        # untraced, at full speed, with its spans kept out of this list.
        os.register_at_fork(after_in_child=self.uninstall)

    def _patch(self, owner, attribute: str, wrapper) -> None:
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, getattr(owner, attribute), own))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back exactly as it was found."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                # Found on a base class: drop the shadowing attribute.
                delattr(owner, attribute)

    def _wrap(self, function, index: int):
        ended = self._ended.append
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended((index, start, clock()))

        span.__wrapped__ = function
        return span

    def _deliver_hook(self, register_subscriber, index: int):
        """``core.deliver`` times the ``Subscriber.deliver`` callback, which
        is a closure handed to ``register_subscriber``, not a named
        function: swap a wrapped callback in as the subscriber registers."""

        def register(system, subscriber):
            subscriber.deliver = self._wrap(subscriber.deliver, index)
            return register_subscriber(system, subscriber)

        register.__wrapped__ = register_subscriber
        return register

    @staticmethod
    def _count(function, counter: list[int]):
        def counted(*args, **kwargs):
            counter[0] += 1
            return function(*args, **kwargs)

        counted.__wrapped__ = function
        return counted

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------

    def begin_window(self) -> None:
        """Forget whatever ran between windows (the harness's own sampling
        calls traced functions too)."""
        self._ended.clear()
        self._pushed_before = self._pushed[0]

    def end_window(self, wall_ms: float) -> None:
        count = len(self.names)
        calls, total_ns, self_ns = [0] * count, [0] * count, [0] * count
        for __, index, duration, own in fold(self._ended):
            calls[index] += 1
            total_ns[index] += duration
            self_ns[index] += own
        self.windows.append(
            (calls, total_ns, self_ns, self._pushed[0] - self._pushed_before)
        )
        window = len(self.windows) - 1
        slowest = sorted(
            (index for index in self._kept if index >= KEEP_FIRST),
            key=lambda index: self._kept[index][0],
        )
        if window >= KEEP_FIRST and len(slowest) == KEEP_SLOWEST:
            if wall_ms <= self._kept[slowest[0]][0]:
                return
            del self._kept[slowest[0]]
        self._kept[window] = (wall_ms, self._ended.copy())

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def per_tick(
        self, count_windows: int, factors: list[float] | None = None
    ) -> dict[str, dict[str, float | None]]:
        """Per-span ``calls`` over the first ``count_windows`` windows (a
        fixed prefix, so the count repeats exactly per seed) and ``self_ms``
        / ``total_ms`` over every window, each per window, each window's
        times multiplied by its entry in ``factors`` (``speed.py``).
        ``total_ms`` adds up every call, so a span that calls itself would
        count the inner interval twice; none of :data:`TOTAL_SPANS` does.
        Missing spans report ``None``."""
        windows = len(self.windows)
        counted = min(count_windows, windows)
        if factors is None:
            factors = [1.0] * windows
        table: dict[str, dict[str, float | None]] = {}
        for index, name in enumerate(self.names):
            if name in self.missing or not windows:
                table[name] = {"calls": None, "self_ms": None, "total_ms": None}
                continue
            table[name] = {
                "calls": sum(row[0][index] for row in self.windows[:counted]) / counted,
                "total_ms": sum(
                    row[1][index] * factor for row, factor in zip(self.windows, factors)
                ) / windows / 1e6,
                "self_ms": sum(
                    row[2][index] * factor for row, factor in zip(self.windows, factors)
                ) / windows / 1e6,
            }
        return table

    def events_per_tick(self, count_windows: int) -> float | None:
        if not self._count_pushes or not self.windows:
            return None
        counted = min(count_windows, len(self.windows))
        return sum(row[3] for row in self.windows[:counted]) / counted

    def kept_windows(self) -> list[dict]:
        """The span trees kept for the first and the slowest windows.

        Spans are listed in the order they ended (children before their
        parent); ``parent`` is the list position of the enclosing span, or
        ``None`` for the window's root."""
        out = []
        for window in sorted(self._kept):
            wall_ms, ended = self._kept[window]
            parents: list[int | None] = [None] * len(ended)
            spans = [
                {
                    "span": self.names[index],
                    "start_us": ended[position][1] / 1e3,
                    "dur_us": duration / 1e3,
                    "self_us": own / 1e3,
                }
                for position, index, duration, own in fold(ended, parents)
            ]
            for span, parent in zip(spans, parents):
                span["parent"] = parent
            out.append({"window": window, "wall_ms": wall_ms, "spans": spans})
        return out
