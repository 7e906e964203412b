"""How fast the machine runs Python while a workload runs.

On a shared host the speed at which one core runs Python changes by a third
within minutes, as other work comes and goes, and it changes within a single
operation too.  `Speedometer` samples it: a timer signal every INTERVAL_S of
wall time runs one fixed calibration slice and records its duration.  A time
measured over an interval, minus the slices run inside it, multiplied by
REFERENCE_SLICE_S over the mean slice duration of that interval, is the time
the same work takes at the reference speed.  That scaled time follows the
program, not its neighbours.  The slices cost about one percent of the run.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.005
# Roughly the duration of one calibration_slice() on an idle 2-core x86-64 host
# under CPython 3.11; it only fixes the scale of the scaled times.
REFERENCE_SLICE_S = 0.0000625


def calibration_slice(n: int = 150) -> float:
    """Duration of a fixed piece of interpreter work: integer arithmetic and
    dict updates, allocating almost nothing the garbage collector tracks."""
    t0 = time.perf_counter()
    table: dict = {}
    x = 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2147483647
        k = x % 61
        table[k] = table.get(k, 0) + (x >> 7) % 1000
    return time.perf_counter() - t0


def at_reference(seconds: float, slices, fallback) -> float:
    """`seconds` of work, measured without the slices, at the reference speed.

    `slices` is the (total duration, number) of the slices run during that
    work; an interval too short to hold one is scaled by `fallback`, the
    slices of the whole repetition."""
    spent, count = slices if slices[1] else fallback
    return seconds * REFERENCE_SLICE_S * count / spent


class Speedometer:
    """Context manager that samples the speed until it exits.

    `spent` is the total duration of the slices run so far and `count` their
    number.
    """

    def __init__(self):
        self.spent = 0.0
        self.count = 0
        self._busy = False

    def _tick(self, _signum, _frame):
        if self._busy:  # a signal that arrives during a slice is dropped
            return
        self._busy = True
        self.spent += calibration_slice()
        self.count += 1
        self._busy = False

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def mark(self):
        return self.spent, self.count

    def since(self, mark):
        """(total duration, number) of the slices run since `mark`."""
        return self.spent - mark[0], self.count - mark[1]
