"""Wall-clock windows, and the machine's speed measured beside them.

The cores of the machine this benchmark was written on are shared with other
tenants, and their speed drifts by +-20% over tens of seconds: the same E_S
call took 92-198 us in 0.25 s windows over two minutes, with CPU time equal
to wall time.  So a fixed kernel (an interpreted arithmetic loop and ten
200x200 matrix products, the two kinds of work gent does) is timed three
times after every window of in-process work, and times are multiplied by
CAL_NOMINAL_S / (median kernel time).  They are thus reported at the speed
at which the kernel takes CAL_NOMINAL_S, which on a quiet machine is close
to the raw time.  The speed alternates between a fast and a slow state
(about 1.5x apart) that last seconds, so a window's median operation time
is scaled by the kernel timed right after it, and then the median over
windows is robust to the share of slow windows; a round's total time, for
throughput, is scaled by the median kernel time of the round.  Raw times
are kept in the result file.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

CAL_NOMINAL_S = 0.005
_CAL_REPEATS = 3
_CAL_LOOP = 20_000
_CAL_MATRIX = np.random.default_rng(0).standard_normal((200, 200))


def _kernel() -> float:
    t0 = perf_counter()
    x = 0.0
    for i in range(_CAL_LOOP):
        x += math.sqrt(i + 0.5)
    for _ in range(10):
        _CAL_MATRIX @ _CAL_MATRIX
    return perf_counter() - t0


@dataclass
class Window:
    seconds: float  # raw wall time of the work in the window
    op_median: float | None  # raw median seconds of the headline operations in it
    factor: float  # CAL_NOMINAL_S over the median kernel time right after it


class Clock:
    """Cuts a round into windows, sampling the machine's speed after each."""

    def __init__(self):
        self.windows: list[Window] = []
        self.samples: list[float] = []  # kernel times
        self._t0 = 0.0
        self._op_times: list[float] = []

    def sample(self) -> float:
        """Time the kernel; the speed factor of this sample alone."""
        times = [_kernel() for _ in range(_CAL_REPEATS)]
        self.samples += times
        return CAL_NOMINAL_S / statistics.median(times)

    def factor(self) -> float:
        """CAL_NOMINAL_S over the median kernel time sampled so far."""
        return CAL_NOMINAL_S / statistics.median(self.samples)

    def begin(self) -> None:
        self._op_times = []
        self._t0 = perf_counter()

    def op(self, seconds: float) -> None:
        self._op_times.append(seconds)

    def close(self) -> None:
        """End the window and start the next."""
        seconds = perf_counter() - self._t0
        op_median = statistics.median(self._op_times) if self._op_times else None
        self.windows.append(Window(seconds, op_median, self.sample()))
        self.begin()
