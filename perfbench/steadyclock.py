"""Time in seconds of a reference machine.

On a shared virtual machine the same pure-Python work can take 0.7x to
1.4x its typical time from one second to the next, because other tenants
compete for the physical core.  Wall time then spreads across runs by far
more than any bound a regression check could use.

``SteadyClock`` corrects for that.  While it runs, a SIGALRM handler times
``snippet()``, a fixed piece of pure-Python exact arithmetic, every
``PERIOD_S`` seconds.  Callers take ``perf_counter()`` timestamps as usual.
After ``stop()``, ``ref(t)`` maps a timestamp to reference seconds: each
stretch of work between two samples is scaled by ``REFERENCE_S`` over the
median snippet time of the ``WINDOW`` samples around it, and the snippet's
own time counts as zero.  A difference of two mapped timestamps is thus the
time the work would have taken on a machine that runs the snippet in
``REFERENCE_S``, its typical time on a 2-core x86-64 virtual machine under
Python 3.11.

Signals are handled between bytecodes of the main thread, so samples fall
inside long library calls too, and never inside a caller's timestamp.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
REFERENCE_S = 0.00165
WINDOW = 4  # samples around a stretch of work: two before it, two after

# The snippet does the kinds of work the library does: exact integer
# elimination, rational arithmetic, and tuples hashed into a dict.  Under
# contention its time tracks the library's more closely than a loop of
# small-integer arithmetic does.
MATRIX = [[(i * 7 + j * 13) % 17 - 8 for j in range(9)] for i in range(9)]


def snippet() -> list:
    for _ in range(3):  # fraction-free (Bareiss) elimination on big integers
        a = [row[:] for row in MATRIX]
        prev = 1
        for k in range(8):
            for i in range(k + 1, 9):
                for j in range(k + 1, 9):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k] or 1
    a = [[Fraction(x) for x in row[:6]] for row in MATRIX[:6]]
    for k in range(6):  # Gaussian elimination over the rationals
        pivot = a[k][k] or Fraction(1)
        for i in range(k + 1, 6):
            f = a[i][k] / pivot
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    counts: dict = {}
    for i in range(750):
        key = tuple(sorted(((i * 37) % 101, (i * 11) % 7, i % 13)))
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


class SteadyClock:
    def __init__(self):
        self._starts: list = []  # perf_counter() when each sample began
        self._ends: list = []  # ... and ended
        self._prefix: list = []  # reference seconds at each sample's end
        self._factors: list = []  # scale of the work after each sample

    def _sample(self, _signum=None, _frame=None) -> None:
        self._starts.append(perf_counter())
        snippet()
        self._ends.append(perf_counter())

    def start(self) -> "SteadyClock":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        times = [e - s for s, e in zip(self._starts, self._ends)]
        half = WINDOW // 2
        self._factors = [
            REFERENCE_S / statistics.median(times[max(0, k - half + 1): k + half + 1])
            for k in range(len(times))
        ]
        self._prefix = [0.0]
        for k in range(1, len(times)):
            work = self._starts[k] - self._ends[k - 1]
            self._prefix.append(self._prefix[-1] + work * self._factors[k - 1])

    def ref(self, t: float) -> float:
        """Reference seconds at timestamp ``t``, counted from the first sample."""
        k = max(0, bisect_right(self._ends, t) - 1)
        return self._prefix[k] + (t - self._ends[k]) * self._factors[k]
