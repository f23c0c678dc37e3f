"""Machine speed, sampled while the benchmark's calls run.

The benchmark runs on a shared VM whose CPU speed changes by up to 1.8
times, in phases from seconds to minutes long.  A call's raw time then
says as much about the phase as about the program.  ``SpeedProbe`` is a
thread that wakes every ``INTERVAL`` seconds and times one fixed unit of
work (a pure-Python loop and a few small numpy products, like the mix
the program runs) by the thread's own CPU time.  The mean probe time
inside a call's interval, divided by ``REFERENCE``, is the probe's
slowdown during that call.  The program slows more than the probe: over
thirty runs, ten per workload, on a shared 2-core VM, each call's
time rose as the 1.2th to 1.8th power of the probe's slowdown
(log-log fits, correlation 0.93 to 0.99), and set-up time as its 1.5th
power.  So the program's slowdown is taken as the probe's slowdown to
the power ``EXPONENT``, and dividing the call's time by it gives the
time at reference speed.  The probe's work never touches rouxforge, so
a change to the program moves the call times and not the probe.

The probe costs about 2% of one core.  It takes the GIL from the
program only for its Python loop; the numpy products release the GIL.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

INTERVAL = 0.05
REFERENCE = 1.0e-3  # probe time, in s, that defines the reference speed
EXPONENT = 1.5
LOOP = 10_000
PRODUCTS = 4


def probe_unit(matrix: np.ndarray) -> float:
    """CPU time of the calling thread for one fixed unit of work."""
    start = time.thread_time()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    for _ in range(PRODUCTS):
        matrix @ matrix
    return time.thread_time() - start


class SpeedProbe(threading.Thread):
    """Probe samples ``(perf_counter, probe seconds)`` while running; use as a context manager."""

    def __init__(self) -> None:
        super().__init__(name="speed-probe", daemon=True)
        self.samples: list = []
        self._done = threading.Event()
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))

    def run(self) -> None:
        while not self._done.wait(INTERVAL):
            self.samples.append((time.perf_counter(), probe_unit(self._matrix)))

    def __enter__(self) -> "SpeedProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self.join()

    def slowdown(self, start: float, end: float) -> float:
        """The program's slowdown in ``[start, end]``: the mean probe time
        there over ``REFERENCE``, to the power ``EXPONENT``.

        The window is widened by one interval on each side, so a call
        shorter than the interval still has a sample.
        """
        inside = [d for t, d in self.samples if start - INTERVAL <= t <= end + INTERVAL]
        if not inside:
            raise RuntimeError("the speed probe took no sample during a call")
        return (statistics.fmean(inside) / REFERENCE) ** EXPONENT
