"""Timing that corrects for the speed of a shared host.

On a shared virtual machine other guests slow this process down by up to
~50%, in phases of seconds to minutes, and the slowdown hits every kind of
code alike: a pure-Python loop, a cache-resident `correlate1d` and one over
3.5 MB slowed together (correlation 0.94-0.97 across 2-s windows).  A
`HostClock` therefore runs a small fixed reference kernel every
`REF_EVERY_S` seconds, at calls the caller marks with `tick`, and stops
while it runs.  A block timed on the clock excludes the kernel runs, and
its time divided by the block's `host_factor` is its time on a host on
which the kernel takes `REF_NOMINAL_S`.  The reference kernel is the
benchmark's own code, so a change to the package moves the block's time but
not the kernel's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.ndimage import correlate1d

REF_EVERY_S = 0.02
REF_NOMINAL_S = 500e-6  # about the kernel's fastest time on the measuring host
_REF_X = np.random.default_rng(0).standard_normal((24, 24, 24))
_REF_P = np.exp(-np.arange(-3, 4) ** 2 / 4.0)


def reference_kernel():
    """Three 7-tap `correlate1d` passes over a 24^3 float64 volume, the
    package's main kind of work on its volume size, then a pure-Python loop
    for the interpreter work around it, which contention slows less than
    the convolution (see bench/README.md); ~0.5-0.9 ms on the measuring
    host."""
    y = _REF_X
    for axis in range(3):
        y = correlate1d(y, _REF_P, axis=axis, mode="constant")
    s = 0
    for i in range(6000):
        s += i * i
    return y, s


class HostClock:
    """A wall clock that stops while the reference kernel runs."""

    def __init__(self):
        self.refs = []       # seconds of each reference-kernel run
        self._paused_ns = 0  # nanoseconds spent in reference runs
        self._last_ns = 0    # perf_counter_ns at the end of the last run

    def now_ns(self) -> int:
        return time.perf_counter_ns() - self._paused_ns

    def now(self) -> float:
        return self.now_ns() / 1e9

    def reference(self):
        """Run and time the reference kernel, with the clock stopped."""
        t = time.perf_counter_ns()
        reference_kernel()
        self._last_ns = time.perf_counter_ns()
        self.refs.append((self._last_ns - t) / 1e9)
        self._paused_ns += self._last_ns - t

    def tick(self):
        """Run the reference kernel if `REF_EVERY_S` has passed since the
        last run."""
        if time.perf_counter_ns() - self._last_ns >= REF_EVERY_S * 1e9:
            self.reference()


def host_factor(refs) -> float:
    """How much slower than nominal the host ran while `refs` were taken:
    their median over `REF_NOMINAL_S`."""
    return statistics.median(refs) / REF_NOMINAL_S
