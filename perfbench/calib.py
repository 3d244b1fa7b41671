"""Machine-speed sampling inside the timed thread.

On a shared virtual machine the speed a process gets flips between two
levels about 1.8x apart every ~0.1 s, with slower drift on top, and the
two vCPUs of a small VM flip largely independently.  Raw wall times of
identical passes then spread by 15-25 %, far wider than any bound worth
setting, and a probe run between passes samples the wrong moments.

While a :class:`Speedometer` is active, an interval timer interrupts the
timed thread every ``INTERVAL_S`` and runs a short fixed probe, recording
its duration; one probe also runs just before and one just after the
block.  The block's time at reference speed is

    seconds = work * reference * mean(1 / probe duration)

where ``work`` is the block's wall time minus the time spent in probes and
``reference`` the probe's duration at the reference speed.  A unit of work
takes time proportional to the probe duration of its moment, so this is
the time the block would have taken at the reference speed.  Program
changes do not move the probe, so they show in ``seconds`` in full, while
the machine's drift cancels.  Probes cost 1-2 % of the block and are
excluded from ``work``.
"""
from __future__ import annotations

import heapq
import math
import signal
import time

INTERVAL_S = 0.02


def python_probe() -> None:
    """Pure Python (no numpy): usable before numpy is imported."""
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(200):
        acc += math.exp(-abs(i * 1e-3 - 0.1))
        heapq.heappush(heap, (-acc, i))


def numpy_probe() -> None:
    """Small-array numpy calls driven from Python, the pattern of the
    package's adaptive quadrature."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 15)
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(60):
        v = np.exp(-np.abs(x * (1.0 + i * 1e-6)))
        acc += float(v @ x)
        heapq.heappush(heap, (-acc, i))


# Probe durations at the reference speed (about this machine's fast state).
REFERENCE_S = {python_probe: 1e-4, numpy_probe: 1.8e-4}


class Speedometer:
    """Context manager that samples the speed of the thread it runs in.

    After the block, ``work`` is its wall time without probes, ``factor``
    the scale to reference speed, and ``seconds`` their product.  ``clock``
    reads a wall clock that stops while probes run, for timing parts of
    the block.  Uses SIGALRM, so only one may be active, in the main thread.
    """

    def __init__(self, probe=numpy_probe):
        self.probe = probe
        self.probes: list[float] = []
        self._spent = 0.0
        self.work = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def _probe_once(self, *_):
        t0 = time.perf_counter()
        self.probe()
        d = time.perf_counter() - t0
        self.probes.append(d)
        self._spent += d

    def __enter__(self) -> "Speedometer":
        self._probe_once()
        self._previous = signal.signal(signal.SIGALRM, self._probe_once)
        self._start = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        self.work = self.clock() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe_once()
        return False

    @property
    def factor(self) -> float:
        return REFERENCE_S[self.probe] * sum(1.0 / d for d in self.probes) / len(self.probes)

    @property
    def seconds(self) -> float:
        return self.work * self.factor
