"""Wall time normalised to a reference host speed.

On a shared VM a core's speed can change by 1.5x or more for seconds at a
time, with no steal time to show for it: the slowdown is in the CPU time of
the process too. A run's wall-clock figures then depend on how much of it
fell into slow phases. ``HostClock`` measures the speed of the core the
benchmark runs on while it runs: a timer signal every ``INTERVAL_S``
interrupts the main thread, which times a fixed loop (``calibrate``) of
the same kinds of work the package does. Each stretch of
wall time between two ticks is then scaled by ``NOMINAL_S`` over the loop's
time near it (the median of the ``2 * HALF_WINDOW`` ticks around it), and
the ticks themselves count as no time at all.

The result is "reference seconds": the wall time the same work would take
on a host where the calibration loop takes ``NOMINAL_S``. A change that
makes the package faster or slower moves reference seconds as it moves wall
seconds; a change of host speed during or between runs moves both the loop
and the package and cancels out.

Python runs signal handlers in the main thread between bytecodes, so a tick
that lands inside a long C call is only late, never lost.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.05
NOMINAL_S = 0.002   # the calibration loop at reference speed
HALF_WINDOW = 3     # a stretch is scaled by the median of 2 * HALF_WINDOW ticks

_A = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(5))
           for i in range(5))
_B = tuple(tuple(Fraction((7 * i + 2 * j) % 13 - 6, 1 + (i + j) % 5) for j in range(5))
           for i in range(5))


_N = 600_000_000_007


def calibrate() -> None:
    """The two kinds of work the package spends its time in, in equal parts.

    A fixed 5x5 ``Fraction`` matmul (calls, allocation and gcd, as in
    ``Mat``) and trial division of a 40-bit integer (a tight integer loop,
    as in ``rational_roots``). In slow phases of a shared core the two slow
    down by different factors, and the package's workloads lie in between.
    """
    for _ in range(2):
        [[sum(_A[i][k] * _B[k][j] for k in range(5)) for j in range(5)] for i in range(5)]
    found = 0
    for d in range(1, 16_000):
        if _N % d == 0:
            found += 1


class HostClock:
    """Records calibration ticks while running; maps wall to reference time.

    ``start()`` it before anything to be timed and ``stop()`` it after;
    then ``ref(t)`` maps a ``perf_counter()`` stamp taken in between to
    reference seconds since the start. ``ref`` is monotonic, and
    ``duration(a, b)`` is the reference length of the wall interval [a, b].
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each loop
        self._previous = None
        self.running = False
        self._starts: list[float] = []
        self._cum: list[float] = []
        self._rates: list[float] = []
        self._ends: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        calibrate()
        self.ticks.append((start, perf_counter()))

    def start(self) -> "HostClock":
        self.ticks.clear()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.running = True
        return self

    def stop(self) -> None:
        """Stops the ticks and builds the mapping; a second call does nothing."""
        if not self.running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.running = False
        self._tick(None, None)
        self._build()

    def _build(self) -> None:
        """Stretches run from each tick's end to the next tick's start."""
        loops = [end - start for start, end in self.ticks]
        self._starts, self._ends, self._cum, self._rates = [], [], [], []
        total = 0.0
        for i in range(len(self.ticks) - 1):
            near = loops[max(0, i - HALF_WINDOW + 1): i + HALF_WINDOW + 1]
            rate = NOMINAL_S / statistics.median(near)
            start, end = self.ticks[i][1], self.ticks[i + 1][0]
            self._starts.append(start)
            self._ends.append(end)
            self._cum.append(total)
            self._rates.append(rate)
            total += max(0.0, end - start) * rate

    def ref(self, t: float) -> float:
        """Reference seconds from the clock's start to the wall stamp ``t``."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        within = min(t, self._ends[i]) - self._starts[i]
        return self._cum[i] + max(0.0, within) * self._rates[i]

    def duration(self, start: float, end: float) -> float:
        return self.ref(end) - self.ref(start)

    def speed(self) -> float:
        """Mean host speed over the clock's life, as reference / wall seconds."""
        wall = self.ticks[-1][0] - self.ticks[0][1]
        return self.ref(self.ticks[-1][0]) / wall if wall > 0 else 1.0
