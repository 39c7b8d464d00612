"""Core-speed sampler: puts timings on a fixed reference core speed.

The cores of a shared host change speed by about 1.7x within a second, as
neighbours come and go, and the change outlasts whole runs; a timing taken
as is measures the neighbours as much as the program.  Within one process,
a fixed piece of interpreter work slows down with the program (over
one-second windows, pure-Python, numpy and ``linprog`` timings correlate by
0.93 to 0.97).  So, while a timed section runs, a SIGALRM handler runs that
work every ``INTERVAL_S`` and times it.  The section's time in reference
seconds is its own time, less the handler's, times the time-weighted mean
of ``REF_SAMPLE_S / sample``: the seconds it would have taken on a core
that runs one sample in ``REF_SAMPLE_S``.

A signal is handled between bytecodes, so a long call into C delays the
next sample; each sample is weighted by the time since the one before it.
One more sample is taken when the section ends, so that a section shorter
than the interval has one too; read the section's time after it has ended.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.005
# one sample's time on a slow core of the 2-core Xeon VM the baseline was
# taken on; a constant, so it scales every figure alike
REF_SAMPLE_S = 60e-6


def _reference_work() -> int:
    d: dict[int, int] = {}
    s = 0
    for i in range(400):
        d[i & 63] = s
        s += (i * 7) % 5
    return s


class SpeedSampler:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.samples: list[float] = []

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - t0)
        self.starts.append(t0)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._handler(signal.SIGALRM, None)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), time.perf_counter()

    def scale(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(seconds spent in the handler, reference seconds per second of
        program time) for the samples taken since ``mark``."""
        k, prev = mark
        samples = self.samples[k:]
        weighted = total = 0.0
        for start, sample in zip(self.starts[k:], samples):
            weight = start - prev
            weighted += weight * REF_SAMPLE_S / sample
            total += weight
            prev = start + sample
        return sum(samples), weighted / total
