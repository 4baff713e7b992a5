"""Reference kernel: fixed work that tells how fast the machine runs now.

On a shared host the speed of a single-threaded process drifts by up to
2x over seconds to minutes, and CPU time drifts with it, so neither wall
nor CPU time of a pass compares across runs.  The worker times this
kernel between every two calls into lambdaloop, and every PERIOD_S
during a call (Probe), and scales each call's own time by NOMINAL_S over
the mean of the kernel times taken around and during it: the scaled time
is what the call would have taken at the speed where the kernel takes
NOMINAL_S.  The kernel does what the package does most, small complex
linear solves and array arithmetic driven from Python, but never calls
the package, so a change to lambdaloop cannot move it.
"""
from __future__ import annotations

import signal
import time

import numpy as np

NOMINAL_S = 0.010      # about the kernel's median time on a 2-vCPU Xeon VM
ITERATIONS = 300
PERIOD_S = 0.25

_rng = np.random.default_rng(0)
_MATRIX = (_rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
           + 8.0 * np.eye(16))
_VECTOR = _rng.standard_normal(16) + 0j
_EYE = np.eye(16)


def kernel() -> float:
    """The fixed work; returns a checksum so that none of it is skipped."""
    x = _VECTOR
    total = 0.0
    for i in range(ITERATIONS):
        a = _MATRIX + (1e-3 * i) * _EYE
        y = np.linalg.solve(a, x)
        total += float(np.abs(a @ y - x).max()) + abs(complex(y[0]))
        x = y / np.linalg.norm(y)
    return total


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Probe:
    """Times the kernel every PERIOD_S of wall time while active, from a
    SIGALRM handler in the main thread (so no thread is added); `samples`
    holds the kernel times and `busy_s` the time the handler took.  A
    disabled probe takes no samples."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.busy_s += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.busy_s = [], 0.0
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def scale(own_s: float, samples: list[float]) -> float:
    """own_s at the nominal speed, given the kernel times taken around it."""
    return own_s * NOMINAL_S * len(samples) / sum(samples)
