"""Timings corrected for the speed of a shared machine.

On a shared host the same fixed work takes from one second to the next up to
40 % more or less time, and its mean drifts by as much over minutes; CPU time
follows wall time, so the cause is contention for the physical core, not
descheduling.  A run cannot average such drift away.  What removes it is a
probe: a small fixed kernel, independent of the program, that a timer runs
every ``INTERVAL_S`` of wall time in the main thread, between the program's
bytecodes.  The probe's duration measures the machine's speed at that moment.

A timed interval is then reported in *reference seconds*.  The probes that
ran inside it are taken out, and they cut the rest into pieces of program
work; each piece is scaled by ``REFERENCE_S`` over the mean duration of the
two probes that bound it.  Where the probe takes ``REFERENCE_S`` (the machine
at its usual speed), a reference second is a wall-clock second; when
neighbours slow the core down, the probe slows with the program and the
correction takes the slowdown out where it happened.  Pieces this short
matter: the probe's durations are bimodal, and one factor for a whole
interval, from its median probe, tracked fixed work three times worse.
``perfbench/README.md`` gives how closely the correction tracks each kind of
work the program does.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05  # wall time of program work between two probes
REFERENCE_S = 0.0025  # the probe's duration at the machine's usual speed

# Scattered reads over a buffer larger than a core's L2 cache reach the shared
# cache and memory, which neighbours contend for as well.  The positions come
# from multiplicative hashing, not numpy.random, whose import alone would add
# 6 MB to the run's memory; the reads land in a preallocated array, so a
# probe allocates no memory of its own.
_BUFFER = np.arange(1 << 19, dtype=float)  # 4 MiB
np.sin(_BUFFER, out=_BUFFER)
_INDEX = np.arange(20_000, dtype=np.int64) * 2_654_435_761 % _BUFFER.size
_GATHERED = np.empty(_INDEX.size)
PROBE_BYTES = _BUFFER.nbytes + _INDEX.nbytes + _GATHERED.nbytes  # resident for the run


def kernel() -> complex:
    """Fixed work shaped like the program's: complex scalar arithmetic in
    Python and small numpy slice updates, as in the matrix assemblies, and
    scattered reads from memory, as in its short CLI operations."""
    acc = 0j
    w = 1.0 + 0j
    for k in range(1, 2000):
        w = w * (0.6 + 0.3j) / (k % 30 + 1) if k % 30 else 1.0 + 0j
        acc += math.comb(40, k % 41) * w
    col = np.zeros(48, dtype=complex)
    row = np.arange(48, dtype=float) * (0.1 + 0.2j)
    for j in range(1000):
        col[j % 48:] += row[: 48 - j % 48]
    np.take(_BUFFER, _INDEX, out=_GATHERED)
    return acc + col[-1] + _GATHERED[-1]


class SpeedProbe:
    """Runs ``kernel`` on a wall-clock timer and corrects intervals by it."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.cpu = 0.0  # CPU time the probes took
        self._previous = None

    def _fire(self, signum, frame) -> None:
        # no garbage collection inside the probe: a collection of the
        # program's objects would read as a slow machine
        collecting = gc.isenabled()
        gc.disable()
        c0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.cpu += time.process_time() - c0
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        # re-armed only after the probe, so the program always gets its interval
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def probes_in(self, a: float, b: float) -> tuple[int, int]:
        """Index range of the probes that started within [a, b]."""
        return bisect.bisect_left(self.starts, a), bisect.bisect_right(self.starts, b)

    def probe_time(self, a: float, b: float) -> float:
        lo, hi = self.probes_in(a, b)
        return math.fsum(self.durations[lo:hi])

    def work(self, a: float, b: float) -> float:
        """Wall time of [a, b] less the probes that ran inside it."""
        return (b - a) - self.probe_time(a, b)

    def _speed(self, i: int, j: int) -> float:
        """REFERENCE_S over the mean duration of probes i and j, the two that
        bound a piece of work; at either end of the record only one exists."""
        d = [self.durations[k] for k in (i, j) if 0 <= k < len(self.durations)]
        if not d:
            raise RuntimeError("no speed probe ran")
        return REFERENCE_S / math.fsum(d) * len(d)

    def corrected(self, a: float, b: float) -> float:
        """Wall time of the program's work in [a, b], in reference seconds.

        The probes inside [a, b] cut it into pieces of work; each piece is
        scaled by the speed that the two probes bounding it measured, so a
        slowdown is taken out where it happened and only there."""
        lo, hi = self.probes_in(a, b)
        total = 0.0
        begin = a
        for i in range(lo, hi):
            total += (self.starts[i] - begin) * self._speed(i - 1, i)
            begin = self.starts[i] + self.durations[i]
        return total + (b - begin) * self._speed(hi - 1, hi)

    def factor(self, a: float, b: float) -> float:
        """The correction applied to [a, b] as a whole."""
        return self.corrected(a, b) / self.work(a, b)
