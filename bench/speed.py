"""How fast the machine is right now, so that timings can be compared.

On a shared box the same work takes up to 1.6x longer for tens of seconds
at a time (measured here: one seed of ``adaptive-hotspot``, fourteen 5 s
trials in a row, median window 37-63 ms). Such an epoch outlasts a whole
invocation, so repeating trials does not remove it. What does: a fixed
pure-Python kernel, run between the timed windows, whose duration rises and
falls with the machine's speed. Dividing each window by the kernel time
measured next to it brought the spread of those fourteen medians from 25 %
down to 5 %.

Timings are therefore reported *at reference speed*: multiplied by
``REFERENCE_MS / kernel time``. On a quiet run of the container the baseline
was recorded on the factor is 1 and the numbers are plain wall-clock
milliseconds; anywhere else they are what the run would have taken there.
Parent and change are measured the same way, so their ratio is unaffected.
The raw wall-clock figures are printed beside the normalised ones.

The kernel has two halves because the machine slows in two ways that move
independently: contended execution units (an integer loop feels it) and
contended caches (a walk over 20 000 small objects and a dict feels it). The
program, object-heavy Python, feels both; the geometric mean of the halves
tracked it best.
"""

from __future__ import annotations

import math
import statistics
import time

#: Kernel time on the quiet container the baseline was recorded on.
REFERENCE_MS = 1.34

#: The kernel runs before every this-many-th window.
PROBE_EVERY = 5


class _Cell:
    __slots__ = ("number", "key")

    def __init__(self, index: int) -> None:
        self.number = float(index)
        self.key = (index, index + 1)


class SpeedProbe:
    def __init__(self) -> None:
        self._cells = [_Cell(index) for index in range(20_000)][::4]
        self._table = {(index, index + 1): index for index in range(20_000)}

    def sample(self) -> float:
        """Milliseconds the kernel takes now."""
        clock = time.perf_counter
        table = self._table
        started = clock()
        total = 0.0
        for cell in self._cells:
            total += cell.number + table[cell.key]
        walked = clock()
        square_sum = 0
        for value in range(30_000):
            square_sum += value * value
        done = clock()
        return math.sqrt((walked - started) * (done - walked)) * 1e3


def window_factors(probes: list[float], windows: int) -> list[float]:
    """Per window, the factor that brings its timing to reference speed.

    ``probes[k]`` was taken just before window ``k * PROBE_EVERY``. Each
    window uses the median of three probes — the one before it and that
    probe's neighbours (the nearest three at either end) — so one
    interrupted kernel run does not distort five windows.
    """
    last_start = max(0, len(probes) - 3)
    smoothed = [
        statistics.median(probes[min(max(0, index - 1), last_start) :][:3])
        for index in range(len(probes))
    ]
    return [REFERENCE_MS / smoothed[window // PROBE_EVERY] for window in range(windows)]
